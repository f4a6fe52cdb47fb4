package broadcast

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fragdb/internal/metrics"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
)

// want builds the expected delivery strings for origin's seqs lo..hi
// with payload pattern fn.
func wantSeqs(origin int, lo, hi uint64, payload func(seq uint64) any) []string {
	var out []string
	for s := lo; s <= hi; s++ {
		out = append(out, fmt.Sprintf("N%d/%d/%v", origin, s, payload(s)))
	}
	return out
}

func assertGot(t *testing.T, got, want []string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: delivered %d messages, want %d: %v", label, len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: delivery %d = %q, want %q (full: %v)", label, i, got[i], want[i], got)
		}
	}
}

// TestBatchStraddlesCompactionHorizon: a DataBatch whose range begins
// below the receiver's prefix (already delivered or superseded by a
// snapshot) delivers exactly the new suffix, in order — the stale
// elements are skipped without disturbing per-origin FIFO.
func TestBatchStraddlesCompactionHorizon(t *testing.T) {
	r := newRig(t, 2, Config{Compaction: true}, 1)
	defer r.stopAll()

	// Fast-forward node 1's view of stream 0 to seq 5 via a snapshot
	// offer, as if seqs 1..5 were compacted away at the sender.
	r.bs[1].HandleMessage(0, SnapshotOffer{Have: map[netsim.NodeID]uint64{0: 5}})
	if got := r.bs[1].Prefix(0); got != 5 {
		t.Fatalf("prefix after snapshot = %d, want 5", got)
	}

	// A repair batch covering 3..8 straddles the horizon: 3..5 are
	// duplicates, 6..8 are new.
	payloads := []any{"p3", "p4", "p5", "p6", "p7", "p8"}
	r.bs[1].HandleMessage(0, DataBatch{Origin: 0, Start: 3, Payloads: payloads})
	assertGot(t, r.got[1], []string{"N0/6/p6", "N0/7/p7", "N0/8/p8"}, "straddling batch")
}

// TestBatchOutOfOrderBuffered: a batch arriving ahead of the stream
// buffers in the pending window and delivers, FIFO, once the gap fills
// — including when the gap-filling batch itself overlaps the buffered
// range.
func TestBatchOutOfOrderBuffered(t *testing.T) {
	r := newRig(t, 2, Config{}, 1)
	defer r.stopAll()

	r.bs[1].HandleMessage(0, DataBatch{Origin: 0, Start: 4, Payloads: []any{"p4", "p5", "p6"}})
	if len(r.got[1]) != 0 {
		t.Fatalf("out-of-order batch delivered early: %v", r.got[1])
	}
	if r.bs[1].PendingSize() != 3 {
		t.Fatalf("pending = %d, want 3", r.bs[1].PendingSize())
	}
	// Gap fill overlaps the buffered range (1..4): everything drains.
	r.bs[1].HandleMessage(0, DataBatch{Origin: 0, Start: 1, Payloads: []any{"p1", "p2", "p3", "p4"}})
	assertGot(t, r.got[1],
		wantSeqs(0, 1, 6, func(s uint64) any { return fmt.Sprintf("p%d", s) }),
		"after gap fill")
	if r.bs[1].PendingSize() != 0 {
		t.Fatalf("pending not drained: %d", r.bs[1].PendingSize())
	}
}

// TestBatchBeyondPendingWindowDropped: batch elements past the
// out-of-order window are dropped element-wise (anti-entropy refills
// later); elements within the window still buffer.
func TestBatchBeyondPendingWindowDropped(t *testing.T) {
	m := &metrics.Broadcast{}
	r := newRig(t, 2, Config{Metrics: m}, 1)
	defer r.stopAll()
	// Seqs pendingWindow-1 and pendingWindow fit; the next two do not.
	r.bs[1].HandleMessage(0, DataBatch{Origin: 0, Start: pendingWindow - 1, Payloads: []any{"a", "b", "c", "d"}})
	if got := r.bs[1].PendingSize(); got != 2 {
		t.Fatalf("pending = %d, want 2 (two seqs buffered, two beyond window)", got)
	}
	if got := m.PendingDropped.Load(); got != 2 {
		t.Fatalf("pending-dropped = %d, want 2", got)
	}
}

// TestBatchedRepairRange: after a partition heals, anti-entropy ships
// the missed suffix as one contiguous DataBatch per origin instead of
// one message per sequence number.
func TestBatchedRepairRange(t *testing.T) {
	m := &metrics.Broadcast{}
	r := newRig(t, 2, Config{Metrics: m}, 1)
	defer r.stopAll()
	r.net.Partition([]netsim.NodeID{0}, []netsim.NodeID{1})
	const missed = 50
	for i := 0; i < missed; i++ {
		r.bs[0].Send(i)
	}
	r.sched.Run()
	r.net.Heal()
	sendsBefore := m.DataSends.Load()
	r.bs[1].Gossip()
	r.sched.Run()
	want := wantSeqs(0, 1, missed, func(s uint64) any { return s - 1 })
	assertGot(t, r.got[1], want, "after heal")
	if sends := m.DataSends.Load() - sendsBefore; sends != 1 {
		t.Errorf("repair used %d data messages for %d missed seqs, want 1 range batch", sends, missed)
	}
}

// TestDeltaDigestsShrinkAndStillRepair: once peers converge, steady-state
// digests carry empty deltas (heartbeats), yet new sends still trigger
// repair through the merged per-peer view, and the periodic full digest
// resynchronizes. The test watches actual Digest traffic via a handler
// wrapper.
func TestDeltaDigestsShrinkAndStillRepair(t *testing.T) {
	cfg := Config{GossipInterval: int64(20 * time.Millisecond)}
	r := newRig(t, 2, cfg, 1)
	defer r.stopAll()

	var mu sync.Mutex
	var full, delta, deltaEmpty int
	for i := 0; i < 2; i++ {
		i := i
		inner := r.bs[i]
		r.net.SetHandler(netsim.NodeID(i), func(from netsim.NodeID, payload any) {
			if d, ok := payload.(Digest); ok {
				mu.Lock()
				switch {
				case !d.Delta:
					full++
				case len(d.Have) == 0:
					deltaEmpty++
				default:
					delta++
				}
				mu.Unlock()
			}
			inner.HandleMessage(from, payload)
		})
	}

	r.bs[0].Send("x")
	r.sched.RunFor(500 * time.Millisecond)
	mu.Lock()
	f0, d0, de0 := full, delta, deltaEmpty
	mu.Unlock()
	t.Logf("digests: full=%d delta=%d empty-delta=%d", f0, d0, de0)
	if f0 == 0 {
		t.Error("no full digests seen (periodic resync missing)")
	}
	if de0 == 0 {
		t.Error("no empty delta digests in steady state (deltas not shrinking)")
	}
	if de0 <= f0 {
		t.Errorf("empty deltas (%d) should dominate full digests (%d) in steady state", de0, f0)
	}

	// A partition-missed send must still repair: node 1's next digest to
	// node 0 is an unchanged (likely empty) delta, and node 0 serves the
	// missing suffix from its merged view of node 1's prefixes.
	r.net.Partition([]netsim.NodeID{0}, []netsim.NodeID{1})
	r.bs[0].Send("y")
	r.sched.RunFor(50 * time.Millisecond)
	r.net.Heal()
	r.sched.RunFor(500 * time.Millisecond)
	assertGot(t, r.got[1], []string{"N0/1/x", "N0/2/y"}, "after heal")
}

// TestEventualFIFODeliveryUnderPartitions: random sends from every node
// race a partition/heal schedule, with delta digests and range repair
// filling what the cuts dropped. Every node must deliver every send
// exactly once, each origin's stream strictly in order — a stronger
// check than the property test's prefix agreement. (Compaction under
// partitions is exercised end-to-end by the chaoskit compaction sweep,
// where snapshot catch-up is accounted for by the database-level
// audits.)
func TestEventualFIFODeliveryUnderPartitions(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		cfg := Config{GossipInterval: int64(20 * time.Millisecond)}
		const n = 4
		r := newRig(t, n, cfg, seed)
		rng := r.sched.Rand()
		sent := 0
		for round := 0; round < 6; round++ {
			if rng.Intn(2) == 0 {
				cut := netsim.NodeID(rng.Intn(n))
				var rest []netsim.NodeID
				for i := 0; i < n; i++ {
					if netsim.NodeID(i) != cut {
						rest = append(rest, netsim.NodeID(i))
					}
				}
				r.net.Partition([]netsim.NodeID{cut}, rest)
			}
			for i := 0; i < 10; i++ {
				r.bs[rng.Intn(n)].Send(sent)
				sent++
				r.sched.RunFor(simtime.Duration(rng.Intn(7)) * time.Millisecond)
			}
			r.net.Heal()
			r.sched.RunFor(100 * time.Millisecond)
		}
		r.sched.RunFor(2 * time.Second)
		r.stopAll()
		// Every node delivers every send, each origin's stream strictly
		// in order (different nodes may interleave origins differently).
		for node := 0; node < n; node++ {
			if len(r.got[node]) != sent {
				t.Fatalf("seed %d: node %d delivered %d, want %d", seed, node, len(r.got[node]), sent)
			}
			next := make(map[int]uint64)
			for _, g := range r.got[node] {
				var origin int
				var seq uint64
				var payload int
				if _, err := fmt.Sscanf(g, "N%d/%d/%d", &origin, &seq, &payload); err != nil {
					t.Fatalf("seed %d: unparsable delivery %q: %v", seed, g, err)
				}
				if seq != next[origin]+1 {
					t.Fatalf("seed %d node %d: origin %d delivered seq %d after %d (FIFO violated)",
						seed, node, origin, seq, next[origin])
				}
				next[origin] = seq
			}
		}
	}
}
