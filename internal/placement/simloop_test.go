package placement_test

import (
	"testing"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/netsim"
	"fragdb/internal/placement"
	"fragdb/internal/workload"
)

// TestSimLoopMigratesHotAgent runs the live workload on the simulator
// with the placement loop attached and all of node 0's counter traffic
// originating at node 2. The controller must notice the skew, move the
// counter agent to node 2 with the commutative token handoff, and the
// totals must still converge everywhere.
func TestSimLoopMigratesHotAgent(t *testing.T) {
	const n = 3
	lv, err := workload.NewLive(workload.LiveConfig{
		Cluster: core.Config{N: n, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := lv.Cluster()
	lp := placement.AttachSim(cl, placement.Config{
		Interval:    100 * time.Millisecond,
		HalfLife:    300 * time.Millisecond,
		MinRate:     1,
		Hysteresis:  1.3,
		Cooldown:    500 * time.Millisecond,
		MaxInFlight: 2,
	})

	bumps := 0
	for round := 0; round < 120; round++ {
		// Counter CTR(0) is homed at node 0 but driven from node 2.
		lv.BumpAt(2, 0, 1, func(r core.TxnResult) {
			if r.Committed {
				bumps++
			}
		})
		cl.RunFor(20 * time.Millisecond)
	}
	if !cl.Settle(60 * time.Second) {
		t.Fatal("cluster did not settle")
	}
	lp.Stop()

	if lp.Completed == 0 {
		t.Fatalf("no migration happened (started=%d failed=%d)", lp.Started, lp.Failed)
	}
	home, ok := cl.Tokens().Home("ctr:0")
	if !ok || home != netsim.NodeID(2) {
		t.Fatalf("hot counter agent should live at node 2, lives at %d (ok=%v)", home, ok)
	}
	if bumps == 0 {
		t.Fatal("no bumps committed")
	}
	if err := cl.CheckMutualConsistency(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := lv.CounterTotal(netsim.NodeID(i)); got != int64(bumps) {
			t.Fatalf("node %d counter total %d, want %d", i, got, bumps)
		}
	}
	st := lp.Controller().Status()
	if st.Completed == 0 || len(st.History) == 0 {
		t.Fatalf("controller status should record the move: %+v", st)
	}
	cl.Shutdown()
}
