package broadcast

import (
	"fmt"
	"testing"
	"time"

	"fragdb/internal/metrics"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
)

// TestCompactionBoundsLog: with all peers connected and acking, the
// retained log stays near the CompactRetain slack however long the
// history grows.
func TestCompactionBoundsLog(t *testing.T) {
	m := &metrics.Broadcast{}
	cfg := Config{
		GossipInterval: int64(20 * time.Millisecond),
		Compaction:     true,
		CompactRetain:  8,
		Metrics:        m,
	}
	r := newRig(t, 3, cfg, 1)
	defer r.stopAll()
	const history = 500
	for i := 0; i < history; i++ {
		r.bs[i%3].Send(i)
		r.sched.RunFor(2 * time.Millisecond)
	}
	r.sched.RunFor(300 * time.Millisecond)
	for node := 0; node < 3; node++ {
		if got := r.bs[node].LogSize(); got > 3*8+3 {
			t.Errorf("node %d retains %d entries after %d sends, want ~%d", node, got, history, 3*8)
		}
		for origin := 0; origin < 3; origin++ {
			o := netsim.NodeID(origin)
			if r.bs[node].Prefix(o) != r.bs[o].Prefix(o) {
				t.Errorf("node %d behind on stream %v", node, o)
			}
		}
	}
	if m.CompactedSeqs.Load() == 0 {
		t.Error("no sequences compacted")
	}
	if m.LogEntries.Load() < 0 {
		t.Errorf("LogEntries gauge negative: %d", m.LogEntries.Load())
	}
	// Delivery order must be untouched by truncation.
	for node := 0; node < 3; node++ {
		if len(r.got[node]) != history {
			t.Fatalf("node %d delivered %d, want %d", node, len(r.got[node]), history)
		}
	}
}

// catchupSnapshotter records InstallState calls and serves a marker
// state, standing in for the database-level snapshotter of
// internal/core.
type catchupSnapshotter struct {
	state    any
	installs []map[netsim.NodeID]uint64
}

func (s *catchupSnapshotter) CaptureState() (any, bool) { return s.state, true }
func (s *catchupSnapshotter) InstallState(state any, snapHave, prevHave map[netsim.NodeID]uint64) {
	s.installs = append(s.installs, snapHave)
}

// TestSnapshotCatchUpAfterHorizon: a peer partitioned long enough for
// the survivors to truncate past its prefix is caught up by a snapshot
// offer (prefix fast-forward + InstallState) followed by the retained
// tail — it never sees the compacted sequence numbers again.
func TestSnapshotCatchUpAfterHorizon(t *testing.T) {
	m := &metrics.Broadcast{}
	snaps := make([]*catchupSnapshotter, 3)
	r := &rig{got: make([][]string, 3)}
	r.sched = simtime.NewScheduler(1)
	r.net = netsim.New(r.sched, 3, netsim.WithLatency(netsim.FixedLatency(5*time.Millisecond)))
	r.bs = make([]*Broadcaster, 3)
	for i := 0; i < 3; i++ {
		i := i
		snaps[i] = &catchupSnapshotter{state: fmt.Sprintf("state-of-%d", i)}
		cfg := Config{
			GossipInterval: int64(20 * time.Millisecond),
			Compaction:     true,
			CompactRetain:  4,
			PeerLiveRounds: 3,
			Snapshot:       snaps[i],
			Metrics:        m,
		}
		r.bs[i] = New(netsim.NodeID(i), r.net, r.sched, cfg,
			func(origin netsim.NodeID, seq uint64, payload any) {
				r.got[i] = append(r.got[i], fmt.Sprintf("%v/%d/%v", origin, seq, payload))
			})
		r.net.SetHandler(netsim.NodeID(i), func(from netsim.NodeID, payload any) {
			r.bs[i].HandleMessage(from, payload)
		})
	}
	defer r.stopAll()

	// Cut node 2 off and build a long history among the survivors.
	r.net.Partition([]netsim.NodeID{0, 1}, []netsim.NodeID{2})
	const history = 200
	for i := 0; i < history; i++ {
		r.bs[0].Send(i)
		r.sched.RunFor(2 * time.Millisecond)
	}
	r.sched.RunFor(300 * time.Millisecond)
	if base := r.bs[1].Base(0); base == 0 {
		t.Fatal("survivors never truncated despite dead peer — compaction gated on it")
	}
	if got := r.got[2]; len(got) != 0 {
		t.Fatalf("partitioned node delivered %d", len(got))
	}

	// Heal: node 2 must catch up by snapshot, then tail.
	r.net.Heal()
	r.sched.RunFor(time.Second)
	if got, want := r.bs[2].Prefix(0), r.bs[0].Prefix(0); got != want {
		t.Fatalf("laggard prefix %d, want %d", got, want)
	}
	if len(snaps[2].installs) == 0 {
		t.Fatal("no snapshot installed at the laggard")
	}
	if m.SnapshotsSent.Load() == 0 || m.SnapshotsInstalled.Load() == 0 {
		t.Errorf("snapshot counters sent=%d installed=%d", m.SnapshotsSent.Load(), m.SnapshotsInstalled.Load())
	}
	// The laggard's deliveries must be only the retained tail, in order,
	// starting above the snapshot's Have.
	snapHave := snaps[2].installs[0][0]
	if snapHave == 0 {
		t.Fatal("snapshot Have[0] = 0")
	}
	want := snapHave + 1
	for _, s := range r.got[2] {
		var seq uint64
		var payload int
		if _, err := fmt.Sscanf(s, "N0/%d/%d", &seq, &payload); err != nil {
			t.Fatalf("unexpected delivery %q", s)
		}
		if seq != want {
			t.Fatalf("tail delivery gap: got seq %d, want %d (deliveries %v)", seq, want, r.got[2])
		}
		want++
	}
	if want != uint64(history)+1 {
		t.Fatalf("tail ended at %d, want %d", want-1, history)
	}
	// The stream continues past the snapshot: the caught-up node must
	// ride along through normal delivery.
	tailStart := len(r.got[2])
	for i := 0; i < 5; i++ {
		r.bs[0].Send(fmt.Sprintf("%d", history+i))
		r.sched.RunFor(20 * time.Millisecond)
	}
	r.sched.RunFor(100 * time.Millisecond)
	if got := len(r.got[2]) - tailStart; got != 5 {
		t.Fatalf("caught-up node delivered %d of 5 post-snapshot messages: %v",
			got, r.got[2][tailStart:])
	}
}

// TestSnapshotOfferStaleIgnored: an offer that does not advance any
// stream must not touch state (the laggard caught up by normal repair
// in the meantime).
func TestSnapshotOfferStaleIgnored(t *testing.T) {
	r := newRig(t, 2, Config{Compaction: true}, 1)
	r.bs[0].Send("a")
	r.bs[0].Send("b")
	r.sched.Run()
	before := r.bs[1].Prefix(0)
	r.bs[1].HandleMessage(0, SnapshotOffer{Have: map[netsim.NodeID]uint64{0: 1}})
	if got := r.bs[1].Prefix(0); got != before {
		t.Errorf("stale offer moved prefix %d -> %d", before, got)
	}
	if len(r.got[1]) != 2 {
		t.Errorf("stale offer disturbed deliveries: %v", r.got[1])
	}
}

// TestPendingWindowBoundsBuffer floods a gap with far-future sequence
// numbers: the out-of-order buffer must stay within pendingWindow and
// the dropped messages must still arrive eventually via anti-entropy.
func TestPendingWindowBoundsBuffer(t *testing.T) {
	m := &metrics.Broadcast{}
	const window = pendingWindow
	const history = window + 200
	cfg := Config{
		GossipInterval: int64(20 * time.Millisecond),
		Metrics:        m,
	}
	r := newRig(t, 2, cfg, 1)
	defer r.stopAll()
	// Build the history at node 0 only.
	r.net.Partition([]netsim.NodeID{0}, []netsim.NodeID{1})
	for i := 0; i < history; i++ {
		r.bs[0].Send(i)
	}
	r.sched.RunFor(200 * time.Millisecond)
	// Flood node 1 with the stream re-ordered worst-case: everything but
	// seq 1, newest first.
	log := r.bs[0].Log(0)
	for seq := history; seq >= 2; seq-- {
		r.bs[1].HandleMessage(0, Data{Origin: 0, Seq: uint64(seq), Payload: log[seq-1]})
		if got := r.bs[1].PendingSize(); got > window {
			t.Fatalf("pending buffer grew to %d, window %d", got, window)
		}
	}
	if m.PendingDropped.Load() == 0 {
		t.Fatal("no floods dropped — window not enforced")
	}
	if len(r.got[1]) != 0 {
		t.Fatalf("deliveries before gap filled: %v", r.got[1][:3])
	}
	// Fill the gap: the buffered window drains at once...
	r.bs[1].HandleMessage(0, Data{Origin: 0, Seq: 1, Payload: log[0]})
	if got := len(r.got[1]); got < 1 || got > window+1 {
		t.Fatalf("after gap fill delivered %d, want 1..%d", got, window+1)
	}
	// ...and anti-entropy re-ships what the window dropped.
	r.net.Heal()
	r.sched.RunFor(3 * time.Second)
	if got := len(r.got[1]); got != history {
		t.Fatalf("eventual delivery incomplete: %d of %d", got, history)
	}
	for i, s := range r.got[1] {
		var seq uint64
		var payload int
		fmt.Sscanf(s, "N0/%d/%d", &seq, &payload)
		if seq != uint64(i+1) {
			t.Fatalf("delivery %d out of order: %v", i, s)
		}
	}
}

// TestReentrantSendFromHandler: a handler that broadcasts in response
// to a delivery (as core's recovery protocols do) must not deadlock or
// reorder streams.
func TestReentrantSendFromHandler(t *testing.T) {
	sched := simtime.NewScheduler(1)
	net := netsim.New(sched, 2, netsim.WithLatency(netsim.FixedLatency(5*time.Millisecond)))
	var got []string
	bs := make([]*Broadcaster, 2)
	bs[0] = New(0, net, sched, Config{}, func(o netsim.NodeID, s uint64, p any) {
		got = append(got, fmt.Sprintf("%v/%d/%v", o, s, p))
	})
	bs[1] = New(1, net, sched, Config{}, func(o netsim.NodeID, s uint64, p any) {
		if o == 0 {
			bs[1].Send(fmt.Sprintf("echo-%v", p)) // re-entrant
		}
	})
	for i := 0; i < 2; i++ {
		i := i
		net.SetHandler(netsim.NodeID(i), func(from netsim.NodeID, p any) { bs[i].HandleMessage(from, p) })
	}
	bs[0].Send("ping")
	sched.Run()
	want := []string{"N0/1/ping", "N1/1/echo-ping"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v, want %v", got, want)
	}
}
