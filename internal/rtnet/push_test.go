package rtnet

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"fragdb/internal/broadcast"
	"fragdb/internal/netsim"
	"fragdb/internal/txn"
)

// pushPayload is a one-write quasi-transaction, boxed once, as the
// engine hands it to Broadcaster.Send.
var pushPayload any = txn.Quasi{
	Txn: txn.ID{Origin: 0, Seq: 1}, Fragment: "ACTIVITY(A00)", Pos: txn.FragPos{Seq: 1},
	Writes: []txn.WriteOp{{Object: "act:A00:0:1", Value: int64(50)}},
}

// pushNode builds node 0 of an n-node cluster: its TCP transport and a
// broadcaster on it. Each peer address is served by serve, or refuses
// connections when serve is nil, so frames stay in the peers' queues.
func pushNode(tb testing.TB, n int, serve func(net.Conn)) (*TCP, *broadcast.Broadcaster) {
	tb.Helper()
	addrs := make([]string, n)
	var own net.Listener
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		switch {
		case i == 0:
			own = ln
		case serve == nil:
			ln.Close()
		default:
			tb.Cleanup(func() { ln.Close() })
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					go serve(conn)
				}
			}()
		}
	}
	tp, err := NewTCP(TCPConfig{Local: 0, Addrs: addrs, Listener: own,
		DialBackoffMin: time.Hour, DialBackoffMax: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(tp.Close)
	b := broadcast.New(0, tp, nil, broadcast.Config{}, func(netsim.NodeID, uint64, any) {})
	return tp, b
}

// TestBroadcastPushEncodesOnce: a broadcast pushed to every peer is
// encoded once, and every peer's data queue holds that one frame.
func TestBroadcastPushEncodesOnce(t *testing.T) {
	const n = 5
	tp, b := pushNode(t, n, nil)
	for seq := 1; seq <= 2; seq++ {
		b.Send(pushPayload)
		var first []byte
		for _, p := range tp.peers[1:] {
			if len(p.q) != 1 {
				t.Fatalf("push %d: peer %d queues %d frames, want 1", seq, p.id, len(p.q))
			}
			frame := <-p.q
			if first == nil {
				first = frame
			} else if &frame[0] != &first[0] {
				t.Fatalf("push %d: peer %d got a frame of its own", seq, p.id)
			}
		}
	}
}

// TestConcurrentDataSendsKeepTheirFrames: goroutines sending
// broadcast.Data at once, each its own messages to both peers, share
// the one-frame encoding cache; every message still arrives as itself.
func TestConcurrentDataSendsKeepTheirFrames(t *testing.T) {
	const senders, perSender = 4, 200
	ts, _ := newTCPCluster(t, 3)
	var cols [3]collector
	for i := 1; i < 3; i++ {
		ts[i].SetHandler(netsim.NodeID(i), cols[i].handler)
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				seq := uint64(g*perSender + k + 1)
				d := broadcast.Data{Origin: 0, Seq: seq, Payload: int64(seq)}
				ts[0].Send(0, 1, d)
				ts[0].Send(0, 2, d)
			}
		}(g)
	}
	wg.Wait()
	for i := 1; i < 3; i++ {
		c := &cols[i]
		if !waitFor(t, func() bool { return c.len() == senders*perSender }, 10*time.Second) {
			t.Fatalf("node %d received %d of %d", i, c.len(), senders*perSender)
		}
		c.mu.Lock()
		for _, p := range c.got {
			if d := p.(broadcast.Data); d.Payload != int64(d.Seq) {
				t.Errorf("node %d: message %d arrived carrying %v", i, d.Seq, d.Payload)
			}
		}
		c.mu.Unlock()
	}
}

// BenchmarkBroadcastPush measures one Broadcaster.Send over rtnet.TCP
// to n-1 connected peers that discard what they read: the push's
// allocations do not grow with the peers, as the frame is encoded once.
func BenchmarkBroadcastPush(b *testing.B) {
	for _, n := range []int{3, 5} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tp, bc := pushNode(b, n, func(conn net.Conn) {
				defer conn.Close()
				_, _ = io.Copy(io.Discard, conn) // ends when the transport closes
			})
			for p := 1; p < n; p++ {
				for !tp.Reachable(0, netsim.NodeID(p)) {
					time.Sleep(time.Millisecond)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.Send(pushPayload)
			}
		})
	}
}
