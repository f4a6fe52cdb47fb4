package chaoskit

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/netsim"
)

// -chaoskit.seeds raises the per-profile seed count of TestSweep for
// long soak runs (go test ./internal/chaoskit -chaoskit.seeds=256).
var seedsFlag = flag.Int("chaoskit.seeds", 16, "seeds per profile in TestSweep")

// TestSweep is the main acceptance gate: 16 seeds x 4 option groups =
// 64 deterministic plans by default (4 x 4 in -short), every one
// audited against its option's invariant ladder.
func TestSweep(t *testing.T) {
	perProfile := *seedsFlag
	if testing.Short() {
		perProfile = 4
	}
	res := Sweep(Profiles(), 1, perProfile, SweepOpts{Workers: 4})
	if got, want := len(res.Reports), 4*perProfile; got != want {
		t.Fatalf("executed %d plans, want %d", got, want)
	}
	for _, rep := range res.Failures() {
		t.Errorf("invariant failure: %s", rep.String())
		for _, c := range rep.Failures() {
			t.Errorf("  %s: %v", c.Name, c.Err)
		}
	}
	// The sweep must exercise the machinery it claims to: transactions
	// commit, faults fire, agents move (the moving profile exists).
	tally := res.Tally()
	if tally.TxnsCommitted == 0 {
		t.Error("sweep committed no transactions (vacuous)")
	}
	if tally.FaultsInjected == 0 {
		t.Error("sweep injected no faults (vacuous)")
	}
	if tally.MovesScheduled == 0 {
		t.Error("sweep scheduled no agent moves (vacuous)")
	}
	t.Logf("sweep: %+v", tally)
}

// TestCompactionSweep re-runs the full standard sweep with broadcast
// log compaction forced on: 16 seeds x 4 option groups = 64 plans by
// default. Compaction is copied into the plan outside the RNG draws, so
// every plan here is byte-identical to its TestSweep twin except for
// the flag — any new invariant failure is attributable to truncation
// or snapshot catch-up, not to a different fault schedule.
func TestCompactionSweep(t *testing.T) {
	perProfile := *seedsFlag
	if testing.Short() {
		perProfile = 4
	}
	profiles := Profiles()
	for i := range profiles {
		profiles[i].Compaction = true
	}
	res := Sweep(profiles, 1, perProfile, SweepOpts{Workers: 4})
	if got, want := len(res.Reports), 4*perProfile; got != want {
		t.Fatalf("executed %d plans, want %d", got, want)
	}
	for _, rep := range res.Reports {
		if !rep.Plan.Compaction {
			t.Fatal("plan generated without compaction despite profile flag")
		}
	}
	for _, rep := range res.Failures() {
		t.Errorf("invariant failure under compaction: %s", rep.String())
		for _, c := range rep.Failures() {
			t.Errorf("  %s: %v", c.Name, c.Err)
		}
	}
	tally := res.Tally()
	if tally.TxnsCommitted == 0 {
		t.Error("compaction sweep committed no transactions (vacuous)")
	}
	if tally.FaultsInjected == 0 {
		t.Error("compaction sweep injected no faults (vacuous)")
	}
	t.Logf("compaction sweep: %+v", tally)
}

// TestMajorityCommitEpochSwitchRace replays a plan whose no-preparation
// move's M0 switches a fragment's epoch at the old home while one of
// the home's own transactions is still awaiting majority
// acknowledgments, which the plan's lossy links keep in flight across
// the switch. The home must not install the quasi at its dead-epoch
// position (that regressed the stream below the switch and wedged every
// new-epoch quasi behind the gap, failing liveness and mutual
// consistency); it aborts the transaction instead, like a prepared
// move's fence. Seed 20 is the one seed of 1–128 of the compaction
// profile that fails without that epoch guard.
func TestMajorityCommitEpochSwitchRace(t *testing.T) {
	p := Generate(20, CompactionProfile())
	if !p.MajorityCommit || len(p.Moves) == 0 {
		t.Fatalf("plan no longer exercises majority commit + moves (majority=%v moves=%d)",
			p.MajorityCommit, len(p.Moves))
	}
	rep := Execute(p, RunOpts{})
	if rep.Failed() {
		t.Errorf("seed 20 regression: %s", rep.String())
		for _, c := range rep.Failures() {
			t.Errorf("  %s: %v", c.Name, c.Err)
		}
	}
}

// noPrepParkedInstallPlan is compaction seed 708, shrunk: f1's agent
// moves from node 1 to node 0 without preparation while one of f1's
// quasi-transactions is parked on node 0's locks behind node 0's own
// transaction of f0, which reads f1. It needs majority commit;
// compaction is on but plays no part (the plan fails without it too).
func noPrepParkedInstallPlan() Plan {
	return Plan{
		Seed: 708, Profile: "compaction", Option: core.UnrestrictedReads,
		N: 2, Frags: 2, MajorityCommit: true, Compaction: true,
		Horizon:   2096 * time.Millisecond,
		ReadEdges: [][2]int{{0, 1}},
		Steps: []Step{
			{At: 1039 * time.Millisecond, Frag: 1, Node: 0, Kind: StepUpdate},
			{At: 1616 * time.Millisecond, Frag: 1, Node: 0, Kind: StepUpdate},
			{At: 1102 * time.Millisecond, Frag: 2, Node: 0, Kind: StepUpdate, Reads: []int{1}},
			{At: 1062 * time.Millisecond, Frag: 1, Node: 0, Kind: StepUpdate},
			{At: 1094 * time.Millisecond, Frag: 2, Node: 0, Kind: StepUpdate},
			{At: 1028 * time.Millisecond, Frag: 1, Node: 0, Kind: StepUpdate},
		},
		Moves: []Move{
			{At: 1133 * time.Millisecond, Frag: 1, To: 2, Protocol: MoveNoPrep, Window: 232 * time.Millisecond},
		},
	}
}

// TestNoPrepMoveFinishesParkedInstall: the new home of a no-preparation
// move must finish a parked old-epoch install before it begins the new
// epoch. Beginning at once let that install set the stream back to its
// old-epoch position, so the new home numbered its next commit in the
// old epoch and the old home, now forwarding old-epoch stragglers, sent
// it back uninstalled: the replicas of f1 diverged.
func TestNoPrepMoveFinishesParkedInstall(t *testing.T) {
	rep := Execute(noPrepParkedInstallPlan(), RunOpts{})
	if rep.Failed() {
		t.Errorf("seed 708 regression: %s", rep.String())
		for _, c := range rep.Failures() {
			t.Errorf("  %s: %v", c.Name, c.Err)
		}
	}
}

// withDataParkedInstallPlan is compaction seed 948, shrunk: f0's agent
// moves with its data from node 0 to node 2 while f0's committed
// T(N0#2) is parked on node 2's locks — behind node 2's T(N2#2), which
// holds S on f0/ctr and waits for f2/ctr, held by a majority-prepared
// transaction whose acknowledgment the lossy links dropped. Fragment
// index 3 is f0 (Frags is 3). Compaction is on but plays no part (the
// plan fails without it too).
func withDataParkedInstallPlan() Plan {
	return Plan{
		Seed: 948, Profile: "compaction", Option: core.UnrestrictedReads,
		N: 3, Frags: 3, MajorityCommit: true, Compaction: true,
		LossProb:  0.13908300906374566,
		Horizon:   2085 * time.Millisecond,
		ReadEdges: [][2]int{{0, 1}, {0, 2}, {1, 0}},
		Steps: []Step{
			{At: 528 * time.Millisecond, Frag: 3, Node: 0, Kind: StepUpdate, Reads: []int{0, 2}},
			{At: 40 * time.Millisecond, Frag: 0, Node: 0, Kind: StepUpdate, Reads: []int{3}},
			{At: 351 * time.Millisecond, Frag: 2, Node: 0, Kind: StepUpdate, Reads: []int{3}},
			{At: 50 * time.Millisecond, Frag: 2, Node: 0, Kind: StepUpdate},
			{At: 25 * time.Millisecond, Frag: 1, Node: 0, Kind: StepUpdate, Reads: []int{0}},
			{At: 340 * time.Millisecond, Frag: 0, Node: 0, Kind: StepUpdate, Reads: []int{1, 3}},
		},
		Moves: []Move{
			{At: 916 * time.Millisecond, Frag: 3, To: 2, Protocol: MoveData, Window: 120 * time.Millisecond},
		},
	}
}

// TestMoveWithDataFinishesParkedInstall: the new home of a move with
// data must finish a parked install before it installs the carried
// snapshot. Installing the snapshot at once let the parked
// quasi-transaction install afterwards and overwrite the snapshot's
// newer f0/ctr: node 2 held 2 of 3 increments and f0's graphs got a
// cycle.
func TestMoveWithDataFinishesParkedInstall(t *testing.T) {
	rep := Execute(withDataParkedInstallPlan(), RunOpts{})
	if rep.MovesDone != 1 {
		t.Errorf("the move with data did not complete (%d done): the plan no longer exercises it", rep.MovesDone)
	}
	if rep.Failed() {
		t.Errorf("seed 948 regression: %s", rep.String())
		for _, c := range rep.Failures() {
			t.Errorf("  %s: %v", c.Name, c.Err)
		}
	}
}

// TestCompactionLongHistory drives the dedicated compaction profile —
// histories ten times longer than the standard sweep — and checks that
// (a) the invariant ladder still passes and (b) the run is not
// vacuous: sequences were actually truncated and the retained log
// stayed within the retention slack rather than growing with history.
func TestCompactionLongHistory(t *testing.T) {
	pr, ok := ProfileByName("compaction")
	if !ok {
		t.Fatal("compaction profile missing")
	}
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		var compacted, snapshots uint64
		perNode := map[int]int{}
		opts := RunOpts{Sabotage: func(cl *core.Cluster, p Plan) {
			// Let a few quiet gossip rounds run so the watermark
			// catches up to the final acks, then freeze the stats.
			cl.RunFor(2 * time.Second)
			compacted = cl.BroadcastStats().CompactedSeqs.Load()
			snapshots = cl.BroadcastStats().SnapshotsInstalled.Load()
			for i := 0; i < p.N; i++ {
				perNode[i] = cl.Node(netsim.NodeID(i)).Broadcaster().LogSize()
			}
		}}
		p := Generate(seed, pr)
		rep := Execute(p, opts)
		if rep.Failed() {
			t.Errorf("seed %d: invariant failure: %s", seed, rep.String())
			for _, c := range rep.Failures() {
				t.Errorf("  %s: %v", c.Name, c.Err)
			}
			continue
		}
		if compacted == 0 {
			t.Errorf("seed %d: %d steps compacted nothing (vacuous)", seed, len(p.Steps))
		}
		// At quiescence every stream is acked by every replica, so the
		// retained tail per origin is just the retention slack. 2x for
		// digest propagation lag.
		bound := p.N * chaosCompactRetain * 2
		for node, got := range perNode {
			if got > bound {
				t.Errorf("seed %d: node %d retains %d broadcast entries after %d steps (bound %d)",
					seed, node, got, len(p.Steps), bound)
			}
		}
		t.Logf("seed %d: steps=%d compacted=%d snapshots-installed=%d", seed, len(p.Steps), compacted, snapshots)
	}
}

// TestBankSweep runs the banking workload profile: conservation of
// money (balances = initial + committed activity - fines) and a
// RECORDED mark for every ACTIVITY entry, under partitions and customer
// moves. Sixteen seeds include plans whose office folds several
// quasi-transactions into one pair (seeds 9, 12 and 14 among them).
func TestBankSweep(t *testing.T) {
	perProfile := 16
	if testing.Short() {
		perProfile = 3
	}
	res := Sweep([]Profile{BankProfile()}, 1, perProfile, SweepOpts{Workers: 2})
	for _, rep := range res.Failures() {
		t.Errorf("bank failure: %s", rep.String())
		for _, c := range rep.Failures() {
			t.Errorf("  %s: %v", c.Name, c.Err)
		}
	}
	if res.Tally().TxnsCommitted == 0 {
		t.Error("bank sweep committed no transactions (vacuous)")
	}
}

// TestPlanDeterminism: the same (seed, profile) must regenerate the
// identical plan, and distinct seeds must not collapse to one plan.
func TestPlanDeterminism(t *testing.T) {
	for _, pr := range append(Profiles(), BankProfile()) {
		a := Generate(7, pr)
		b := Generate(7, pr)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("profile %s: seed 7 regenerated differently", pr.Name)
		}
		c := Generate(8, pr)
		if reflect.DeepEqual(a, c) {
			t.Errorf("profile %s: seeds 7 and 8 generated identical plans", pr.Name)
		}
	}
}

// TestExecutionDeterminism: re-executing a plan must reproduce the
// identical audit outcome and transaction counts.
func TestExecutionDeterminism(t *testing.T) {
	for _, pr := range Profiles() {
		pr := pr
		t.Run(pr.Name, func(t *testing.T) {
			t.Parallel()
			p := Generate(3, pr)
			first := Execute(p, RunOpts{})
			if !ReplaySame(p, RunOpts{}, first) {
				t.Fatalf("profile %s seed 3: replay diverged from first execution", pr.Name)
			}
		})
	}
}

// TestSabotageCaughtAndShrunk proves the harness can actually fail: a
// test double corrupts one replica after settle, the auditor must
// catch the broken invariant, and the shrinker must produce a strictly
// smaller plan that still fails, emitting a reproducer bundle.
func TestSabotageCaughtAndShrunk(t *testing.T) {
	pr, ok := ProfileByName("unrestricted")
	if !ok {
		t.Fatal("unrestricted profile missing")
	}
	sabotage := func(cl *core.Cluster, p Plan) {
		// Overwrite one replica's counter outside any transaction:
		// deterministic mutual-consistency violation.
		if err := cl.Node(netsim.NodeID(p.N-1)).Store().Load(ctrObj(0), int64(987654)); err != nil {
			t.Errorf("sabotage failed: %v", err)
		}
	}
	opts := RunOpts{Sabotage: sabotage}

	p := Generate(5, pr)
	rep := Execute(p, opts)
	if !rep.Failed() {
		t.Fatal("auditor missed the sabotaged replica")
	}
	var names []string
	for _, c := range rep.Failures() {
		names = append(names, c.Name)
	}
	if !strings.Contains(strings.Join(names, ","), "mutual-consistency") {
		t.Fatalf("expected mutual-consistency failure, got %v", names)
	}
	if rep.DOT == "" {
		t.Error("failing report carries no serialization-graph DOT dump")
	}

	sr := Shrink(p, opts, 120)
	if !sr.MinimalReport.Failed() {
		t.Fatal("shrunk plan no longer fails")
	}
	if sr.Minimal.Size() >= sr.Original.Size() {
		t.Errorf("shrinker made no progress: size %d -> %d", sr.Original.Size(), sr.Minimal.Size())
	}
	if sr.Accepted == 0 {
		t.Error("shrink accepted no reductions")
	}

	dir := t.TempDir()
	path, err := WriteRepro(dir, sr)
	if err != nil {
		t.Fatalf("WriteRepro: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading repro: %v", err)
	}
	if !strings.Contains(string(blob), "chaoskit.Plan{") {
		t.Errorf("repro plan file is not a Go literal:\n%s", blob)
	}
	if _, err := os.Stat(filepath.Join(dir, filepath.Base(strings.TrimSuffix(path, ".plan.go.txt"))+".report.txt")); err != nil {
		t.Errorf("repro report missing: %v", err)
	}
}

// TestAcyclicProfileGeneratesForests: every acyclic-profile plan must
// declare an elementarily acyclic read-access graph, or the engine
// would reject it at Start.
func TestAcyclicProfileGeneratesForests(t *testing.T) {
	pr, _ := ProfileByName("acyclic")
	for seed := int64(1); seed <= 50; seed++ {
		p := Generate(seed, pr)
		undirected := make(map[[2]int]bool)
		for _, e := range p.ReadEdges {
			a, b := e[0], e[1]
			if a > b {
				a, b = b, a
			}
			if undirected[[2]int{a, b}] {
				t.Fatalf("seed %d: duplicate/antiparallel edge %v", seed, e)
			}
			undirected[[2]int{a, b}] = true
		}
		if len(undirected) >= p.Frags {
			t.Fatalf("seed %d: %d undirected edges over %d fragments cannot be a forest",
				seed, len(undirected), p.Frags)
		}
	}
}

// TestProfileByName covers the lookup used by cmd/hachaos flags.
func TestProfileByName(t *testing.T) {
	for _, name := range []string{"readlocks", "acyclic", "unrestricted", "moving", "bank", "compaction"} {
		pr, ok := ProfileByName(name)
		if !ok || pr.Name != name {
			t.Errorf("ProfileByName(%q) = %+v, %v", name, pr, ok)
		}
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("ProfileByName accepted an unknown name")
	}
}

// TestGoLiteralShape sanity-checks the repro renderer.
func TestGoLiteralShape(t *testing.T) {
	p := Generate(2, Profiles()[3]) // moving profile: richest literal
	lit := p.GoLiteral()
	for _, want := range []string{"chaoskit.Plan{", "Seed:    2", "Horizon:", "Steps: []chaoskit.Step{"} {
		if !strings.Contains(lit, want) {
			t.Errorf("literal missing %q:\n%s", want, lit)
		}
	}
}
