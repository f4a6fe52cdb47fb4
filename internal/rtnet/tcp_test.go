package rtnet

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fragdb/internal/broadcast"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/wire"
)

// collector gathers deliveries thread-safely.
type collector struct {
	mu  sync.Mutex
	got []any
}

func (c *collector) handler(from netsim.NodeID, payload any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, payload)
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func waitFor(t *testing.T, cond func() bool, within time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// newTCPCluster builds an n-node TCP transport cluster on ephemeral
// loopback ports, with the production dial backoff, returning the
// transports and their addresses.
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
		tp, err := NewTCP(TCPConfig{Local: netsim.NodeID(i), Addrs: addrs, Listener: lns[i]})
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
	// process would. Node 0 must redial and resume delivering, on the
	// production backoff: the restarted node's handshake wakes node 0's
	// dialer, so delivery resumes within a second of the rebind.
	ts[1].Close()
	var ts1b *TCP
	ok := waitFor(t, func() bool {
		tp, err := NewTCP(TCPConfig{Local: 1, Addrs: addrs})
		if err != nil {
			return false // port may linger briefly after Close
		}
		ts1b = tp
		return true
	}, 5*time.Second)
	if !ok {
		t.Fatal("could not rebind the restarted node's address")
	}
	rebound := time.Now()
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
	if d := time.Since(rebound); d > time.Second {
		t.Errorf("delivery resumed %v after the rebind, want within 1s", d)
	}
}

// TestTCPDialerWakesOnInboundHandshake: node 0 has failed to reach node
// 1 and faces an hour of backoff. Node 1 comes up and dials node 0; its
// handshake proves it is listening, so node 0 dials it at once instead
// of waiting the hour out.
func TestTCPDialerWakesOnInboundHandshake(t *testing.T) {
	reserved, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := reserved.Addr().String()
	reserved.Close()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), addr1}
	t0, err := NewTCP(TCPConfig{Local: 0, Addrs: addrs, Listener: ln0,
		DialBackoffMin: time.Hour, DialBackoffMax: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(t0.Close)
	if !waitFor(t, func() bool { return t0.Stats().DialErrors.Load() >= 1 }, 5*time.Second) {
		t.Fatal("node 0 never dialled the absent node 1")
	}

	t1, err := NewTCP(TCPConfig{Local: 1, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(t1.Close)
	var c collector
	t1.SetHandler(1, c.handler)
	up := time.Now()
	if !waitFor(t, func() bool { return t0.Reachable(0, 1) }, time.Second) {
		t.Fatalf("node 0 has no link to node 1 %v after it came up (dials %d, dial errors %d)",
			time.Since(up), t0.Stats().Dials.Load(), t0.Stats().DialErrors.Load())
	}
	t0.Send(0, 1, "woken")
	if !waitFor(t, func() bool { return c.len() == 1 }, time.Second-time.Since(up)) {
		t.Fatalf("no delivery to node 1 within 1s of it coming up")
	}
}

// TestTCPStaleWakeKeepsBackoff: node 1's handshake at start-up wakes
// node 0's dialer to it, which is connected already. That wake is spent
// when the link breaks: node 0's second dial to the closed node 1 still
// waits DialBackoffMin after the first.
func TestTCPStaleWakeKeepsBackoff(t *testing.T) {
	ts, _ := newTCPCluster(t, 2)
	if !waitFor(t, func() bool {
		return ts[0].Reachable(0, 1) && ts[1].Reachable(1, 0) && ts[0].Stats().ConnsAccepted.Load() == 1
	}, 5*time.Second) {
		t.Fatal("the two nodes did not link up")
	}
	ts[1].Close()
	// The dead link shows at a failed write.
	if !waitFor(t, func() bool {
		ts[0].Send(0, 1, "probe")
		return ts[0].Stats().DialErrors.Load() >= 1
	}, 5*time.Second) {
		t.Fatal("node 0 never redialled the closed node 1")
	}
	first := time.Now()
	if !waitFor(t, func() bool { return ts[0].Stats().DialErrors.Load() >= 2 }, 5*time.Second) {
		t.Fatal("node 0 stopped redialling")
	}
	if d, min := time.Since(first), ts[0].cfg.DialBackoffMin; d < min*4/5 {
		t.Errorf("second dial %v after the first, want the %v backoff", d, min)
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
			frame, err := wire.ReadFrame(br, nil, wire.MaxFrameDefault)
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

// loopBroadcaster is one node's reliable broadcast in the deployed
// shape: TCP deliveries reach it through an ExecTransport onto its
// Loop, and its gossip runs on the loop's scheduler.
type loopBroadcaster struct {
	loop *Loop
	b    *broadcast.Broadcaster
}

// do runs fn on the node's loop goroutine and waits for it.
func (n loopBroadcaster) do(fn func()) {
	done := make(chan struct{})
	if n.loop.Inject(func() { fn(); close(done) }) {
		<-done
	}
}

func (n loopBroadcaster) prefix(origin netsim.NodeID) (p uint64) {
	n.do(func() { p = n.b.Prefix(origin) })
	return p
}

// loopBroadcasters starts a broadcaster per transport, each on its own
// Loop whose scheduler paces its gossip, stopped at test cleanup.
func loopBroadcasters(t *testing.T, ts []*TCP, cfg broadcast.Config) []loopBroadcaster {
	t.Helper()
	ns := make([]loopBroadcaster, len(ts))
	for i, tp := range ts {
		sched := simtime.NewScheduler(int64(i + 1))
		loop := NewLoop(sched)
		tr := ExecTransport{Transport: tp, Loop: loop}
		id := netsim.NodeID(i)
		b := broadcast.New(id, tr, sched, cfg,
			func(origin netsim.NodeID, seq uint64, payload any) {})
		tr.SetHandler(id, func(from netsim.NodeID, payload any) { b.HandleMessage(from, payload) })
		ns[i] = loopBroadcaster{loop: loop, b: b}
		loop.Start()
		t.Cleanup(func() {
			ns[i].do(b.Stop)
			loop.Stop()
		})
	}
	return ns
}

// partition sets (or clears) drop rules on both sides of every link
// between node and the rest of the cluster.
func partition(ts []*TCP, node netsim.NodeID, drop bool) {
	for i, tp := range ts {
		if netsim.NodeID(i) != node {
			tp.SetPeerDrop(node, drop)
			ts[node].SetPeerDrop(netsim.NodeID(i), drop)
		}
	}
}

// converged reports whether every node has delivered want entries
// from each origin in origins.
func converged(ns []loopBroadcaster, origins []netsim.NodeID, want uint64) bool {
	for _, n := range ns {
		for _, o := range origins {
			if n.prefix(o) != want {
				return false
			}
		}
	}
	return true
}

// TestTCPBroadcastConvergence runs the reliable broadcast as a deployed
// node does — TCP, ExecTransport, a Loop driving the scheduler — with a
// drop-rule partition mid-stream: after healing, anti-entropy must
// converge every node, exactly as over netsim. Run under -race.
func TestTCPBroadcastConvergence(t *testing.T) {
	ts, _ := newTCPCluster(t, 3)
	ns := loopBroadcasters(t, ts, broadcast.Config{GossipInterval: int64(10 * time.Millisecond)})

	partition(ts, 2, true)
	const msgs = 5
	ns[0].do(func() {
		for i := 0; i < msgs; i++ {
			ns[0].b.Send(int64(i))
		}
	})
	time.Sleep(50 * time.Millisecond)
	if ns[2].prefix(0) != 0 {
		t.Fatal("partitioned node received messages through drop rules")
	}
	partition(ts, 2, false)
	origins := []netsim.NodeID{0}
	if !waitFor(t, func() bool { return converged(ns, origins, msgs) }, 10*time.Second) {
		for i, n := range ns {
			t.Logf("node %d prefix(0) = %d", i, n.prefix(0))
		}
		t.Fatal("broadcast did not converge over TCP after heal")
	}
}

// TestRealTimeGossipConcurrency runs a compacting broadcast cluster on
// TCP and Loops while one goroutine per node injects sends and the
// test goroutine partitions and heals node 2: client goroutines, TCP
// delivery goroutines and gossip all reach the broadcaster, and only
// through its loop. Run under -race.
func TestRealTimeGossipConcurrency(t *testing.T) {
	const n, perSender = 3, 50
	ts, _ := newTCPCluster(t, n)
	ns := loopBroadcasters(t, ts, broadcast.Config{
		GossipInterval: int64(2 * time.Millisecond), Compaction: true, CompactRetain: 8})

	var wg sync.WaitGroup
	for s := range ns {
		wg.Add(1)
		go func(node loopBroadcaster) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				node.loop.Inject(func() { node.b.Send(i) })
				time.Sleep(200 * time.Microsecond)
			}
		}(ns[s])
	}
	time.Sleep(3 * time.Millisecond)
	partition(ts, 2, true)
	time.Sleep(5 * time.Millisecond)
	partition(ts, 2, false)
	wg.Wait()

	origins := []netsim.NodeID{0, 1, 2}
	if !waitFor(t, func() bool { return converged(ns, origins, perSender) }, 10*time.Second) {
		for i, nd := range ns {
			for _, o := range origins {
				t.Logf("node %d prefix(origin %d) = %d", i, o, nd.prefix(o))
			}
		}
		t.Fatal("real-time cluster did not converge")
	}
}

// TestCloseDropsAndDrains: a send after Close is discarded and counted
// under the closed cause, and never delivered.
func TestCloseDropsAndDrains(t *testing.T) {
	ts, _ := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)
	ts[0].Send(0, 1, "a")
	if !waitFor(t, func() bool { return c.len() == 1 }, 5*time.Second) {
		t.Fatal("no delivery before Close")
	}
	ts[0].Close()
	ts[0].Send(0, 1, "b")
	if n := ts[0].Stats().Closed.Load(); n != 1 {
		t.Fatalf("closed drops = %d after one send past Close, want 1", n)
	}
	time.Sleep(20 * time.Millisecond)
	if c.len() != 1 {
		t.Error("message delivered after the sender closed")
	}
}

// TestSendCloseRace hammers Send from eight goroutines while the
// transport closes: no send blocks or panics, and every send after
// Close returned is counted as a closed drop. Run under -race.
func TestSendCloseRace(t *testing.T) {
	ts, _ := newTCPCluster(t, 2)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				ts[0].Send(0, 1, int64(i))
			}
		}()
	}
	close(start)
	ts[0].Close()
	before := ts[0].Stats().Closed.Load()
	ts[0].Send(0, 1, "late")
	wg.Wait()
	if after := ts[0].Stats().Closed.Load(); after <= before {
		t.Fatalf("closed drops %d -> %d across a send after Close", before, after)
	}
}

// TestCloseCancelsPending: frames queued for a peer that refuses every
// dial, behind an hour of backoff, do not hold Close up — it interrupts
// the backoff instead of waiting it out.
func TestCloseCancelsPending(t *testing.T) {
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
	tp, err := NewTCP(TCPConfig{Local: 0, Addrs: []string{ln.Addr().String(), deadAddr},
		Listener: ln, DialBackoffMin: time.Hour, DialBackoffMax: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.Close)
	for i := 0; i < 1000; i++ {
		tp.Send(0, 1, broadcast.Data{Origin: 0, Seq: uint64(i + 1), Payload: int64(i)})
	}
	if !waitFor(t, func() bool { return tp.Stats().DialErrors.Load() >= 1 }, 5*time.Second) {
		t.Fatal("the dead peer was never dialled")
	}
	start := time.Now()
	tp.Close()
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Close took %v with an hour of dial backoff pending", d)
	}
}

// TestCloseIdempotent closes a receiving transport from four goroutines
// at once under a send load: every call returns, and no handler runs
// after the first return. Run under -race.
func TestCloseIdempotent(t *testing.T) {
	ts, _ := newTCPCluster(t, 2)
	var closed atomic.Bool
	ts[1].SetHandler(1, func(from netsim.NodeID, payload any) {
		if closed.Load() {
			t.Error("handler ran after Close returned")
		}
	})
	var senders sync.WaitGroup
	for g := 0; g < 4; g++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; i < 500; i++ {
				ts[0].Send(0, 1, int64(i))
			}
		}()
	}
	var closers sync.WaitGroup
	for g := 0; g < 4; g++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			ts[1].Close()
			closed.Store(true)
		}()
	}
	closers.Wait()
	senders.Wait()
	ts[1].Close()
}
