package broadcast

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
)

// rig wires n broadcasters over a simulated network. Each broadcaster's
// deliveries are recorded per node.
type rig struct {
	sched *simtime.Scheduler
	net   *netsim.Network
	bs    []*Broadcaster
	got   [][]string // got[node] = delivered "origin/seq/payload" strings
}

func newRig(t *testing.T, n int, cfg Config, seed int64) *rig {
	t.Helper()
	r := &rig{
		sched: simtime.NewScheduler(seed),
		got:   make([][]string, n),
	}
	r.net = netsim.New(r.sched, n, netsim.WithLatency(netsim.FixedLatency(5*time.Millisecond)))
	r.bs = make([]*Broadcaster, n)
	for i := 0; i < n; i++ {
		i := i
		r.bs[i] = New(netsim.NodeID(i), r.net, r.sched, cfg,
			func(origin netsim.NodeID, seq uint64, payload any) {
				r.got[i] = append(r.got[i], fmt.Sprintf("%v/%d/%v", origin, seq, payload))
			})
		r.net.SetHandler(netsim.NodeID(i), func(from netsim.NodeID, payload any) {
			r.bs[i].HandleMessage(from, payload)
		})
	}
	return r
}

func (r *rig) stopAll() {
	for _, b := range r.bs {
		b.Stop()
	}
}

func TestBroadcastReachesAllNodes(t *testing.T) {
	r := newRig(t, 3, Config{}, 1)
	r.bs[0].Send("hello")
	r.sched.Run()
	for i := 0; i < 3; i++ {
		if len(r.got[i]) != 1 || r.got[i][0] != "N0/1/hello" {
			t.Errorf("node %d got %v", i, r.got[i])
		}
	}
}

func TestPerOriginFIFO(t *testing.T) {
	r := newRig(t, 2, Config{}, 1)
	for i := 1; i <= 10; i++ {
		r.bs[0].Send(i)
	}
	r.sched.Run()
	if len(r.got[1]) != 10 {
		t.Fatalf("node 1 delivered %d, want 10", len(r.got[1]))
	}
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("N0/%d/%d", i+1, i+1)
		if r.got[1][i] != want {
			t.Fatalf("delivery %d = %q, want %q", i, r.got[1][i], want)
		}
	}
}

func TestOutOfOrderBuffering(t *testing.T) {
	// Deliver seq 2 before seq 1 by injecting Data directly.
	r := newRig(t, 2, Config{}, 1)
	r.bs[1].HandleMessage(0, Data{Origin: 0, Seq: 2, Payload: "b"})
	if len(r.got[1]) != 0 {
		t.Fatal("out-of-order message delivered early")
	}
	r.bs[1].HandleMessage(0, Data{Origin: 0, Seq: 1, Payload: "a"})
	if len(r.got[1]) != 2 || r.got[1][0] != "N0/1/a" || r.got[1][1] != "N0/2/b" {
		t.Fatalf("got %v", r.got[1])
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	r := newRig(t, 2, Config{}, 1)
	d := Data{Origin: 0, Seq: 1, Payload: "x"}
	r.bs[1].HandleMessage(0, d)
	r.bs[1].HandleMessage(0, d)
	r.bs[1].HandleMessage(0, d)
	if len(r.got[1]) != 1 {
		t.Fatalf("duplicates delivered: %v", r.got[1])
	}
}

func TestNonProtocolMessageIgnored(t *testing.T) {
	r := newRig(t, 2, Config{}, 1)
	if r.bs[1].HandleMessage(0, "random") {
		t.Error("HandleMessage claimed a non-protocol message")
	}
}

func TestPartitionRepairViaGossip(t *testing.T) {
	r := newRig(t, 3, Config{GossipInterval: int64(50 * time.Millisecond)}, 1)
	defer r.stopAll()
	// Partition node 2 away; messages sent meanwhile are lost to it.
	r.net.Partition([]netsim.NodeID{0, 1}, []netsim.NodeID{2})
	r.bs[0].Send("during-partition-1")
	r.bs[0].Send("during-partition-2")
	r.sched.RunFor(200 * time.Millisecond)
	if len(r.got[2]) != 0 {
		t.Fatalf("partitioned node received: %v", r.got[2])
	}
	// Heal; anti-entropy must deliver the missed messages in order.
	r.net.Heal()
	r.sched.RunFor(500 * time.Millisecond)
	if len(r.got[2]) != 2 || r.got[2][0] != "N0/1/during-partition-1" || r.got[2][1] != "N0/2/during-partition-2" {
		t.Fatalf("after heal node 2 got %v", r.got[2])
	}
}

func TestRepairServedByThirdParty(t *testing.T) {
	// Origin 0 partitions away AFTER node 1 got its message but before
	// node 2 did. Node 2 must still recover the message — from node 1.
	r := newRig(t, 3, Config{GossipInterval: int64(50 * time.Millisecond)}, 1)
	defer r.stopAll()
	r.net.Partition([]netsim.NodeID{0, 1}, []netsim.NodeID{2})
	r.bs[0].Send("m")
	r.sched.RunFor(100 * time.Millisecond)
	if len(r.got[1]) != 1 || len(r.got[2]) != 0 {
		t.Fatalf("setup wrong: got1=%v got2=%v", r.got[1], r.got[2])
	}
	// Now 0 is isolated; 1 and 2 reunite.
	r.net.Partition([]netsim.NodeID{0}, []netsim.NodeID{1, 2})
	r.sched.RunFor(500 * time.Millisecond)
	if len(r.got[2]) != 1 || r.got[2][0] != "N0/1/m" {
		t.Fatalf("third-party repair failed: got2=%v", r.got[2])
	}
}

func TestMultiHopLineTopology(t *testing.T) {
	// Line 0-1-2: node 2 has no direct link to 0, so the push is lost;
	// gossip through 1 must deliver.
	sched := simtime.NewScheduler(1)
	net := netsim.New(sched, 3,
		netsim.WithLatency(netsim.FixedLatency(5*time.Millisecond)),
		netsim.WithTopology([][2]netsim.NodeID{{0, 1}, {1, 2}}))
	got := make([][]string, 3)
	bs := make([]*Broadcaster, 3)
	for i := 0; i < 3; i++ {
		i := i
		bs[i] = New(netsim.NodeID(i), net, sched,
			Config{GossipInterval: int64(30 * time.Millisecond)},
			func(o netsim.NodeID, s uint64, p any) {
				got[i] = append(got[i], fmt.Sprintf("%v/%d/%v", o, s, p))
			})
		net.SetHandler(netsim.NodeID(i), func(from netsim.NodeID, p any) { bs[i].HandleMessage(from, p) })
	}
	bs[0].Send("hop")
	sched.RunFor(300 * time.Millisecond)
	for _, b := range bs {
		b.Stop()
	}
	if len(got[2]) != 1 || got[2][0] != "N0/1/hop" {
		t.Fatalf("multi-hop delivery failed: %v", got[2])
	}
}

func TestPrefixAndLog(t *testing.T) {
	r := newRig(t, 2, Config{}, 1)
	r.bs[0].Send("a")
	r.bs[0].Send("b")
	r.sched.Run()
	if r.bs[1].Prefix(0) != 2 {
		t.Errorf("Prefix = %d", r.bs[1].Prefix(0))
	}
	log := r.bs[1].Log(0)
	if len(log) != 2 || log[0] != "a" || log[1] != "b" {
		t.Errorf("Log = %v", log)
	}
	if r.bs[1].Prefix(1) != 0 {
		t.Errorf("own Prefix = %d, want 0 (never sent)", r.bs[1].Prefix(1))
	}
}

// repairRig is a two-node rig whose node 0 has sent missed payloads of
// size bytes each (per SizeOf) while cut off from node 1; seen collects
// the data messages node 1 receives.
func repairRig(t *testing.T, missed, size int) (r *rig, seen *[]any) {
	t.Helper()
	r = newRig(t, 2, Config{SizeOf: func(any) int { return size }}, 1)
	seen = new([]any)
	r.net.SetHandler(1, func(from netsim.NodeID, p any) {
		if Resendable(p) {
			if _, digest := p.(Digest); !digest {
				*seen = append(*seen, p)
			}
		}
		r.bs[1].HandleMessage(from, p)
	})
	r.net.Partition([]netsim.NodeID{0}, []netsim.NodeID{1})
	for i := 0; i < missed; i++ {
		r.bs[0].Send(i)
	}
	r.sched.Run()
	r.net.Heal()
	return r, seen
}

// TestRepairShipsRangesInWindow: a digest from a peer missing 1 000
// entries is answered with one DataBatch, not 1 000 Data messages, and
// the ranges are capped by the repair window — so the peer converges in
// exactly ⌈bytes/window⌉ digest rounds.
func TestRepairShipsRangesInWindow(t *testing.T) {
	const missed, perRound = 1000, 100
	const size = repairWindow / perRound
	r, seen := repairRig(t, missed, size)
	rounds := (missed*size + repairWindow - 1) / repairWindow
	for round := 1; round <= rounds; round++ {
		*seen = nil
		r.bs[1].Gossip()
		r.sched.Run()
		if len(*seen) != 1 {
			t.Fatalf("round %d: %d data messages answered one digest, want 1", round, len(*seen))
		}
		batch, ok := (*seen)[0].(DataBatch)
		if !ok {
			t.Fatalf("round %d: repair sent %T, want a DataBatch", round, (*seen)[0])
		}
		if bytes := len(batch.Payloads) * size; bytes > repairWindow {
			t.Fatalf("round %d: batch of %d B exceeds the %d B window", round, bytes, repairWindow)
		}
		if want := min(round*perRound, missed); len(r.got[1]) != want {
			t.Fatalf("round %d: delivered %d, want %d", round, len(r.got[1]), want)
		}
	}
	assertGot(t, r.got[1], wantSeqs(0, 1, missed, func(s uint64) any { return s - 1 }), "converged")
}

// TestRepairShipsOversizedEntryAlone: an entry larger than the whole
// window still ships, by itself, or it could never be repaired.
func TestRepairShipsOversizedEntryAlone(t *testing.T) {
	r, seen := repairRig(t, 2, 2*repairWindow)
	for round := 1; round <= 2; round++ {
		*seen = nil
		r.bs[1].Gossip()
		r.sched.Run()
		if _, ok := (*seen)[0].(Data); len(*seen) != 1 || !ok || len(r.got[1]) != round {
			t.Fatalf("round %d: sent %v, delivered %d", round, *seen, len(r.got[1]))
		}
	}
}

func TestInterleavedSendersEachFIFO(t *testing.T) {
	r := newRig(t, 3, Config{}, 1)
	for i := 0; i < 5; i++ {
		r.bs[0].Send(fmt.Sprintf("a%d", i))
		r.bs[1].Send(fmt.Sprintf("b%d", i))
	}
	r.sched.Run()
	for node := 0; node < 3; node++ {
		var na, nb int
		for _, s := range r.got[node] {
			var origin string
			var seq int
			var payload string
			fmt.Sscanf(s, "N%s", &origin)
			fmt.Sscanf(s[3:], "%d/%s", &seq, &payload)
			_ = payload
			switch s[1] {
			case '0':
				na++
				if seq != na {
					t.Fatalf("node %d: stream 0 out of order: %v", node, r.got[node])
				}
			case '1':
				nb++
				if seq != nb {
					t.Fatalf("node %d: stream 1 out of order: %v", node, r.got[node])
				}
			}
		}
		if na != 5 || nb != 5 {
			t.Fatalf("node %d: na=%d nb=%d", node, na, nb)
		}
	}
}

// Property: under a random partition/heal schedule with gossip enabled,
// every node eventually delivers every message of every stream, in
// order.
func TestPropertyEventualDeliveryUnderPartitions(t *testing.T) {
	f := func(seed int64, nsends uint8, cut uint8) bool {
		n := 4
		sends := int(nsends%20) + 1
		r := newRig(t, n, Config{GossipInterval: int64(40 * time.Millisecond)}, seed)
		defer r.stopAll()
		// Random partition in the middle of the send burst.
		ga := []netsim.NodeID{netsim.NodeID(cut % 4)}
		var gb []netsim.NodeID
		for i := 0; i < n; i++ {
			if netsim.NodeID(i) != ga[0] {
				gb = append(gb, netsim.NodeID(i))
			}
		}
		r.net.ScheduleSplit(simtime.Time(20*time.Millisecond), ga, gb)
		r.net.ScheduleHeal(simtime.Time(300 * time.Millisecond))
		for i := 0; i < sends; i++ {
			i := i
			sender := r.bs[i%n]
			r.sched.At(simtime.Time(time.Duration(i*7)*time.Millisecond), func() {
				sender.Send(i)
			})
		}
		r.sched.RunUntil(simtime.Time(2 * time.Second))
		// All nodes must agree on all streams.
		for node := 0; node < n; node++ {
			for origin := 0; origin < n; origin++ {
				if r.bs[node].Prefix(netsim.NodeID(origin)) != r.bs[origin].Prefix(netsim.NodeID(origin)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}
