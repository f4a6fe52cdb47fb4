package chaoskit

import "testing"

// TestPlacementSweep is the adaptive placement controller's chaos
// acceptance gate: 64 deterministic plans (8 in -short) from
// PlacementProfile — the controller attached with an aggressive
// tuning, update origins skewed away from the initial homes,
// partitions, crashes, and message loss — each audited against the
// full invariant ladder. Every seed must also be non-vacuous: the
// deterministic sustained burst Generate plants guarantees at least
// one automatic migration completes per seed, otherwise the sweep
// would pass trivially with the controller it claims to test never
// acting. The controller only issues prepared protocols for these
// non-commutative fragments, so counter exactness is audited
// unchanged — a migration that lost or duplicated an increment fails
// the run.
func TestPlacementSweep(t *testing.T) {
	seeds := 64
	if testing.Short() {
		seeds = 8
	}
	res := Sweep([]Profile{PlacementProfile()}, 1, seeds, SweepOpts{Workers: 4})
	if got := len(res.Reports); got != seeds {
		t.Fatalf("executed %d plans, want %d", got, seeds)
	}
	for _, rep := range res.Failures() {
		t.Errorf("invariant failure under adaptive placement: %s", rep.String())
		for _, c := range rep.Failures() {
			t.Errorf("  %s: %v", c.Name, c.Err)
		}
	}
	for _, rep := range res.Reports {
		if !rep.Plan.Placement {
			t.Fatalf("seed %d: plan generated without Placement despite profile", rep.Plan.Seed)
		}
		if rep.AutoMoves < 1 {
			t.Errorf("seed %d vacuous: controller completed no migrations (committed %d/%d)",
				rep.Plan.Seed, rep.Committed, rep.Submitted)
		}
	}
	tally := res.Tally()
	if tally.FaultsInjected == 0 {
		t.Error("placement sweep injected no faults (vacuous)")
	}
	t.Logf("placement sweep: %+v", tally)
}

// TestPlacementExecutionDeterminism replays one placement plan and
// requires the identical audit outcome: the controller's decisions are
// a pure function of the virtual-time tick sequence, so attaching it
// must not cost the executor its determinism contract.
func TestPlacementExecutionDeterminism(t *testing.T) {
	p := Generate(5, PlacementProfile())
	first := Execute(p, RunOpts{})
	if !ReplaySame(p, RunOpts{}, first) {
		t.Fatal("placement plan replay diverged")
	}
	second := Execute(p, RunOpts{})
	if second.AutoMoves != first.AutoMoves {
		t.Fatalf("auto-move count diverged across replays: %d vs %d",
			first.AutoMoves, second.AutoMoves)
	}
}
