package rtnet

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fragdb/internal/broadcast"
	"fragdb/internal/netsim"
	"fragdb/internal/wire"
)

// newTCPCluster builds an n-node TCP transport cluster on ephemeral
// loopback ports, returning the transports and their addresses.
func newTCPCluster(t *testing.T, n int) ([]*TCP, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	ts := make([]*TCP, n)
	for i := range ts {
		tp, err := NewTCP(TCPConfig{
			Local:          netsim.NodeID(i),
			Addrs:          addrs,
			Listener:       lns[i],
			DialBackoffMin: 5 * time.Millisecond,
			DialBackoffMax: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts[i] = tp
		t.Cleanup(tp.Close)
	}
	return ts, addrs
}

func TestTCPDelivery(t *testing.T) {
	ts, _ := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)
	// Sends queue until the dial completes; none should be lost with an
	// empty queue.
	ts[0].Send(0, 1, "hello")
	ts[0].Send(0, 1, int64(42))
	ts[1].Send(1, 1, "self") // self-send, no codec
	if !waitFor(t, func() bool { return c.len() == 3 }, 5*time.Second) {
		t.Fatalf("got %d deliveries, want 3", c.len())
	}
}

func TestTCPPeerUnreachableAtDial(t *testing.T) {
	// Node 1's address is a dead port: grab and release an ephemeral
	// listener so nothing answers there.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTCP(TCPConfig{
		Local:          0,
		Addrs:          []string{ln.Addr().String(), deadAddr},
		Listener:       ln,
		DialBackoffMin: time.Millisecond,
		DialBackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	// Sends must not block or panic while the peer is unreachable.
	for i := 0; i < 10; i++ {
		tp.Send(0, 1, int64(i))
	}
	if !waitFor(t, func() bool { return tp.Stats().DialErrors.Load() >= 2 }, 5*time.Second) {
		t.Fatal("transport is not retrying the unreachable peer")
	}
	if tp.Reachable(0, 1) {
		t.Error("Reachable(0,1) = true with nothing listening")
	}
}

func TestTCPReconnectAfterRestart(t *testing.T) {
	ts, addrs := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)
	ts[0].Send(0, 1, "before")
	if !waitFor(t, func() bool { return c.len() == 1 }, 5*time.Second) {
		t.Fatal("no delivery before restart")
	}

	// Kill node 1 and restart it on the same address, as a crashed
	// process would. Node 0 must redial and resume delivering.
	ts[1].Close()
	var ts1b *TCP
	ok := waitFor(t, func() bool {
		tp, err := NewTCP(TCPConfig{
			Local:          1,
			Addrs:          addrs,
			DialBackoffMin: 5 * time.Millisecond,
			DialBackoffMax: 50 * time.Millisecond,
		})
		if err != nil {
			return false // port may linger briefly after Close
		}
		ts1b = tp
		return true
	}, 5*time.Second)
	if !ok {
		t.Fatal("could not rebind the restarted node's address")
	}
	defer ts1b.Close()
	var c2 collector
	ts1b.SetHandler(1, c2.handler)

	// The old connection may take a failed write to be noticed; keep
	// sending until one lands.
	ok = waitFor(t, func() bool {
		ts[0].Send(0, 1, "after")
		return c2.len() > 0
	}, 10*time.Second)
	if !ok {
		t.Fatal("no delivery after restart")
	}
}

// dialHello opens a raw client connection with a valid handshake.
func dialHello(t *testing.T, addr string, id uint64) net.Conn {
	t.Helper()
	return dialHelloVersion(t, addr, id, tcpVersion)
}

// dialHelloVersion handshakes as a peer speaking the given wire format
// version.
func dialHelloVersion(t *testing.T, addr string, id uint64, version byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello := append([]byte{}, tcpMagic[:]...)
	hello = append(hello, version)
	hello = binary.AppendUvarint(hello, id)
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestTCPConnResetMidFrame(t *testing.T) {
	ts, addrs := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)

	// A hostile client handshakes as node 0, sends half a frame, then
	// resets the connection (SO_LINGER 0 turns Close into RST).
	conn := dialHello(t, addrs[1], 0)
	payload, err := wire.Encode("victim")
	if err != nil {
		t.Fatal(err)
	}
	frame := wire.AppendFrame(nil, payload)
	if _, err := conn.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()

	// Garbage magic on a second connection must be rejected too.
	conn2, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	conn2.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	conn2.Close()

	// The transport survives: the real node 0 still gets through.
	ts[0].Send(0, 1, "real")
	if !waitFor(t, func() bool { return c.len() == 1 }, 5*time.Second) {
		t.Fatal("delivery broken after mid-frame reset")
	}
}

// TestTCPVersionMismatchRefusedAtHandshake: a peer built from a tree
// with another wire format (version 1 framed gob envelopes behind tag
// 0) is turned away by the handshake — one connection error, nothing
// decoded, nothing delivered — instead of being accepted and killed on
// its first undecodable frame, reconnect after reconnect.
func TestTCPVersionMismatchRefusedAtHandshake(t *testing.T) {
	ts, addrs := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)

	conn := dialHelloVersion(t, addrs[1], 0, tcpVersion-1)
	defer conn.Close()
	frame, err := wire.EncodeFrame("from-the-past")
	if err != nil {
		t.Fatal(err)
	}
	// The listener may already have hung up; a failed write is fine.
	_, _ = conn.Write(frame)
	if !waitFor(t, func() bool { return ts[1].Stats().ConnErrors.Load() == 1 }, 5*time.Second) {
		t.Fatal("mismatched version not counted as a connection error")
	}
	// The refused connection is closed from the listener's side.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("listener kept a mismatched-version connection open")
	}
	stats := ts[1].Stats()
	if n := stats.FramesRecv.Load(); n != 0 {
		t.Errorf("%d frames read from a mismatched-version peer", n)
	}
	if c.len() != 0 {
		t.Errorf("%d deliveries from a mismatched-version peer", c.len())
	}

	// Peers of the current version are unaffected.
	ts[0].Send(0, 1, "current")
	if !waitFor(t, func() bool { return c.len() == 1 }, 5*time.Second) {
		t.Fatal("delivery broken after a refused handshake")
	}
	if n := ts[1].Stats().ConnErrors.Load(); n != 1 {
		t.Errorf("ConnErrors = %d, want the one refused handshake", n)
	}
}

func TestTCPOversizedFrameKillsConnNotProcess(t *testing.T) {
	ts, addrs := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)

	// Declare a 2^40-byte frame: the reader must kill the connection
	// before allocating anything like that.
	conn := dialHello(t, addrs[1], 0)
	defer conn.Close()
	if _, err := conn.Write(binary.AppendUvarint(nil, 1<<40)); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, func() bool { return ts[1].Stats().ConnErrors.Load() >= 1 }, 5*time.Second) {
		t.Fatal("oversized frame not counted as a connection error")
	}
	ts[0].Send(0, 1, "still-works")
	if !waitFor(t, func() bool { return c.len() == 1 }, 5*time.Second) {
		t.Fatal("delivery broken after oversized frame")
	}
}

// TestTCPControlQueueSurvivesStalledReader: a peer stops reading until
// node 0's data queue for it overflows — the state anti-entropy repair
// storms used to leave behind. Protocol messages that nothing re-sends
// must still get through: 200 control sends find room (control_full 0)
// and every one arrives, in order, once the reader resumes.
func TestTCPControlQueueSurvivesStalledReader(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	tp, err := NewTCP(TCPConfig{
		Local:      0,
		Addrs:      []string{ln0.Addr().String(), peer.Addr().String()},
		Listener:   ln0,
		WriteQueue: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	resume := make(chan struct{})
	arrived := make(chan any, 1024)
	go func() {
		conn, err := peer.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		<-resume
		br := bufio.NewReader(conn)
		var hello [5]byte
		if _, err := io.ReadFull(br, hello[:]); err != nil {
			return
		}
		if _, err := binary.ReadUvarint(br); err != nil {
			return
		}
		for {
			frame, err := wire.ReadFrame(br, wire.MaxFrameDefault)
			if err != nil {
				return
			}
			p, err := wire.Decode(frame)
			if err != nil {
				return
			}
			if !broadcast.Resendable(p) {
				arrived <- p
			}
		}
	}()

	// Fill the socket buffers and then the data queue: the writer is
	// blocked once a long run of data sends in a row finds the queue full.
	st := tp.Stats()
	big := strings.Repeat("x", 16<<10)
	for seq, streak := uint64(1), 0; streak < 1000; seq++ {
		before := st.QueueFull.Load()
		tp.Send(0, 1, broadcast.Data{Origin: 0, Seq: seq, Payload: big})
		if st.QueueFull.Load() > before {
			streak++
		} else {
			streak = 0
		}
	}
	const control = 200
	for i := 0; i < control; i++ {
		tp.Send(0, 1, int64(i))
	}
	if n := st.ControlFull.Load(); n != 0 {
		t.Fatalf("control_full = %d with the data queue full, want 0", n)
	}
	close(resume)
	for i := 0; i < control; i++ {
		select {
		case p := <-arrived:
			if p != int64(i) {
				t.Fatalf("control frame %d arrived as %v", i, p)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d control frames arrived after the reader resumed", i, control)
		}
	}
	if st.SendDropped.Load() != st.QueueFull.Load() {
		t.Errorf("send_dropped %d, queue_full %d: drops by another cause", st.SendDropped.Load(), st.QueueFull.Load())
	}
}

// TestTCPSendYieldsToUnscheduledWriter: on one processor a sender that
// never blocks keeps the peer's writer from running, so the queue fills
// although the peer reads everything — a Send that dropped at once
// would lose all but the first queueful of this 8 192-frame burst
// (7 167 frames). Send yields before dropping, so the writer drains the
// queue; what may still be lost is a frame or so that found the writer
// inside a socket write.
func TestTCPSendYieldsToUnscheduledWriter(t *testing.T) {
	ts, _ := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)
	ts[0].Send(0, 1, "hello")
	if !waitFor(t, func() bool { return c.len() == 1 }, 5*time.Second) {
		t.Fatal("no delivery before the burst")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const burst = 8 * 1024
	for seq := uint64(1); seq <= burst; seq++ {
		ts[0].Send(0, 1, broadcast.Data{Origin: 0, Seq: seq, Payload: int64(seq)})
	}
	lost := int(ts[0].Stats().QueueFull.Load())
	if lost*64 > burst {
		t.Fatalf("queue_full = %d after a %d-frame burst to a peer that reads everything", lost, burst)
	}
	if !waitFor(t, func() bool { return c.len() == 1+burst-lost }, 10*time.Second) {
		t.Fatalf("%d of %d frames delivered, %d dropped", c.len()-1, burst, lost)
	}
}

// TestTCPWriterTakesControlFirst: with both queues holding frames the
// writer takes every control frame before any data frame.
func TestTCPWriterTakesControlFirst(t *testing.T) {
	p := &tcpPeer{q: make(chan []byte, 4), ctl: make(chan []byte, 4)}
	p.q <- []byte("d1")
	p.ctl <- []byte("c1")
	p.q <- []byte("d2")
	p.ctl <- []byte("c2")
	var order []string
	for f := p.next(); f != nil; f = p.next() {
		order = append(order, string(f))
	}
	if got := strings.Join(order, " "); got != "c1 c2 d1 d2" {
		t.Fatalf("writer order %q, want control first", got)
	}
}

func TestTCPDropRules(t *testing.T) {
	ts, _ := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)
	ts[0].Send(0, 1, "a")
	if !waitFor(t, func() bool { return c.len() == 1 }, 5*time.Second) {
		t.Fatal("baseline delivery failed")
	}

	// Outbound drop at the sender.
	ts[0].SetPeerDrop(1, true)
	ts[0].Send(0, 1, "dropped-out")
	// Inbound drop at the receiver.
	ts[0].SetPeerDrop(1, false)
	ts[1].SetPeerDrop(0, true)
	ts[0].Send(0, 1, "dropped-in")
	time.Sleep(100 * time.Millisecond)
	if c.len() != 1 {
		t.Fatalf("partitioned sends delivered: %d", c.len())
	}
	if ts[0].Reachable(0, 1) && ts[1].Reachable(0, 1) {
		t.Error("Reachable ignores drop rules")
	}

	ts[1].SetPeerDrop(0, false)
	ts[0].Send(0, 1, "healed")
	if !waitFor(t, func() bool { return c.len() == 2 }, 5*time.Second) {
		t.Fatal("delivery not restored after drop rules cleared")
	}
}

// TestTCPBroadcastConvergence runs the reliable broadcast over real TCP
// with a drop-rule partition mid-stream: after healing, anti-entropy
// must converge every node, exactly as over netsim and the in-process
// rtnet.Network. Run under -race.
func TestTCPBroadcastConvergence(t *testing.T) {
	const n = 3
	ts, _ := newTCPCluster(t, n)
	bs := make([]*broadcast.Broadcaster, n)
	var mu sync.Mutex
	got := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		bs[i] = broadcast.New(netsim.NodeID(i), ts[i], broadcast.WallTimer{},
			broadcast.Config{GossipInterval: int64(10 * time.Millisecond)},
			func(origin netsim.NodeID, seq uint64, payload any) {
				mu.Lock()
				got[i]++
				mu.Unlock()
			})
		ts[i].SetHandler(netsim.NodeID(i), func(from netsim.NodeID, payload any) {
			bs[i].HandleMessage(from, payload)
		})
	}
	defer func() {
		for _, b := range bs {
			b.Stop()
		}
	}()

	// Partition node 2 away via drop rules on both sides of each link.
	for _, a := range []int{0, 1} {
		ts[a].SetPeerDrop(2, true)
		ts[2].SetPeerDrop(netsim.NodeID(a), true)
	}
	const msgs = 5
	for i := 0; i < msgs; i++ {
		bs[0].Send(int64(i))
	}
	time.Sleep(50 * time.Millisecond)
	if bs[2].Prefix(0) != 0 {
		t.Fatal("partitioned node received messages through drop rules")
	}
	for _, a := range []int{0, 1} {
		ts[a].SetPeerDrop(2, false)
		ts[2].SetPeerDrop(netsim.NodeID(a), false)
	}
	ok := waitFor(t, func() bool {
		for i := 0; i < n; i++ {
			if bs[i].Prefix(0) != msgs {
				return false
			}
		}
		return true
	}, 10*time.Second)
	if !ok {
		for i := 0; i < n; i++ {
			t.Logf("node %d prefix(0) = %d", i, bs[i].Prefix(0))
		}
		t.Fatal("broadcast did not converge over TCP after heal")
	}
}
