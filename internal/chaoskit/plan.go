package chaoskit

import (
	"fmt"
	"strings"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/simtime"
)

// StepKind is the kind of one workload step.
type StepKind int

// The workload vocabulary: counter increments (update transactions on
// the step's own fragment, optionally reading foreign fragments first),
// read-only audits, and banking operations.
const (
	// StepUpdate increments the fragment's counter after reading the
	// counters of the fragments listed in Reads.
	StepUpdate StepKind = iota
	// StepAudit is a read-only transaction scanning the counters of the
	// fragments listed in Reads, submitted at node Node.
	StepAudit
	// StepDeposit / StepWithdraw are banking operations of Amount on
	// account index Frag (bank plans only).
	StepDeposit
	StepWithdraw
)

// String names the step kind.
func (k StepKind) String() string {
	switch k {
	case StepUpdate:
		return "update"
	case StepAudit:
		return "audit"
	case StepDeposit:
		return "deposit"
	case StepWithdraw:
		return "withdraw"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Step is one scheduled workload submission.
type Step struct {
	// At is the virtual time of submission.
	At simtime.Duration
	// Frag is the fragment (or bank account) index the step targets.
	Frag int
	// Node is the submitting node for audits (updates and bank
	// operations resolve the agent's current home at fire time, since
	// agents move).
	Node int
	// Kind selects the operation.
	Kind StepKind
	// Amount is the banking amount (deposit/withdraw).
	Amount int64
	// Reads lists foreign fragment indices read before the write.
	Reads []int
	// Origin is the node an update is accounted to in the labeled
	// registry (placement plans only: the adaptive controller steers by
	// these labels; execution still happens at the agent's home).
	Origin int
}

// FaultKind is the kind of one fault episode.
type FaultKind int

// The fault vocabulary. Message loss is a plan-level property
// (Plan.LossProb), not an episode.
const (
	// FaultPartition splits the cluster into [0,Cut) vs [Cut,N) from At
	// until Until.
	FaultPartition FaultKind = iota
	// FaultCrash takes Node down at At and crash-restarts it (volatile
	// state lost, WAL and broadcast journal replayed) at Until.
	FaultCrash
)

// String names the fault kind.
func (k FaultKind) String() string {
	if k == FaultPartition {
		return "partition"
	}
	return "crash"
}

// Fault is one fault episode with its repair time.
type Fault struct {
	Kind  FaultKind
	At    simtime.Duration
	Until simtime.Duration
	// Cut is the partition boundary: nodes [0,Cut) vs [Cut,N).
	Cut int
	// Node is the crash target.
	Node int
}

// MoveProtocol selects a Section 4.4 agent-movement protocol.
type MoveProtocol int

// The four movement protocols of Section 4.4.
const (
	// MoveData transports a fragment snapshot with the agent (4.4.2A).
	MoveData MoveProtocol = iota
	// MoveSeq carries the last sequence number and waits (4.4.2B).
	MoveSeq
	// MoveMajority reconstructs the stream from a majority (4.4.1;
	// requires Plan.MajorityCommit).
	MoveMajority
	// MoveNoPrep moves with no preparation; missing transactions are
	// repackaged afterwards (4.4.3). Only mutual consistency survives.
	MoveNoPrep
)

// String names the protocol.
func (p MoveProtocol) String() string {
	switch p {
	case MoveData:
		return "with-data"
	case MoveSeq:
		return "with-seq"
	case MoveMajority:
		return "majority"
	case MoveNoPrep:
		return "no-prep"
	default:
		return fmt.Sprintf("MoveProtocol(%d)", int(p))
	}
}

// Move is one scheduled agent move.
type Move struct {
	At simtime.Duration
	// Frag indexes the fragment whose agent moves (bank plans: the
	// account whose customer moves).
	Frag int
	// To is the destination node.
	To int
	// Protocol selects the movement protocol (ignored by bank plans,
	// whose commutative customer fragments move with a bare token move).
	Protocol MoveProtocol
	// Window is the protocol parameter: transport duration for
	// MoveData, maximum wait for MoveSeq/MoveMajority.
	Window simtime.Duration
}

// Plan is a complete, self-contained chaos scenario: a pure value
// derived from (seed, profile) that the Executor replays byte-for-byte.
// Plans print as Go literals (GoLiteral) so a shrunk failing plan can
// be pasted directly into a regression test.
type Plan struct {
	// Seed derives the cluster scheduler seed and, with the profile,
	// regenerates the plan.
	Seed int64
	// Profile names the generating profile (for reports; the plan is
	// self-contained and executes without it).
	Profile string
	// Bank switches the executor to the banking workload (conservation
	// invariant) instead of counters.
	Bank bool
	// Option is the control option under test.
	Option core.ControlOption
	// N is the node count; Frags the fragment (or account) count.
	N, Frags int
	// MajorityCommit enables the Section 4.4.1 commit protocol.
	MajorityCommit bool
	// Compaction enables broadcast log truncation + snapshot catch-up;
	// the invariant ladder must hold unchanged with it on.
	Compaction bool
	// Placement attaches the adaptive placement controller (labeled
	// registry on, Step.Origin honored, automatic agent migrations);
	// the invariant ladder must hold unchanged with it on.
	Placement bool
	// LossProb is the per-message random loss probability.
	LossProb float64
	// Horizon is the active phase's virtual duration; the executor then
	// repairs everything and settles.
	Horizon simtime.Duration
	// ReadEdges declares the read-access graph (fragment index pairs).
	// Under AcyclicReads the generator guarantees an elementarily
	// acyclic (forest) shape; updates read only along declared edges.
	ReadEdges [][2]int
	// Steps, Faults, Moves are the schedule.
	Steps  []Step
	Faults []Fault
	Moves  []Move
}

// HasNoPrepMove reports whether the plan contains a Section 4.4.3 move,
// which weakens the invariant ladder to mutual consistency + liveness.
func (p Plan) HasNoPrepMove() bool {
	for _, m := range p.Moves {
		if m.Protocol == MoveNoPrep {
			return true
		}
	}
	return false
}

// Size is the shrink metric: schedule entries plus topology weight.
func (p Plan) Size() int {
	return len(p.Steps) + 2*len(p.Faults) + 2*len(p.Moves) + p.N + p.Frags
}

// Profile bounds the scenario space one option group explores.
type Profile struct {
	// Name identifies the profile in reports and cmd/hachaos flags.
	Name string
	// Option is the control option; Moving adds §4.4 agent moves.
	Option core.ControlOption
	Moving bool
	// Bank generates banking plans (forces UnrestrictedReads).
	Bank bool
	// MajorityChance is the probability a plan runs majority commit.
	MajorityChance float64
	// Compaction runs every plan with broadcast log compaction on.
	Compaction bool
	// Placement runs every plan with the adaptive placement controller
	// attached and draws skewed update origins so it has something to
	// chase.
	Placement bool
	// Topology bounds.
	MinN, MaxN, MinFrags, MaxFrags int
	// Workload bounds.
	MinSteps, MaxSteps int
	// Fault/move bounds.
	MaxFaults, MaxMoves int
	// LossChance is the probability the plan has random message loss
	// (drawn up to MaxLoss).
	LossChance, MaxLoss float64
}

// Profiles returns the four option groups of the sweep, in the paper's
// order: §4.1 read locks, §4.2 acyclic reads, §4.3 unrestricted reads,
// §4.4 unrestricted reads with moving agents.
func Profiles() []Profile {
	base := Profile{
		MinN: 3, MaxN: 5, MinFrags: 3, MaxFrags: 5,
		MinSteps: 10, MaxSteps: 24,
		MaxFaults: 3, LossChance: 0.4, MaxLoss: 0.2,
	}
	p41 := base
	p41.Name, p41.Option = "readlocks", core.ReadLocks
	p42 := base
	p42.Name, p42.Option = "acyclic", core.AcyclicReads
	p43 := base
	p43.Name, p43.Option = "unrestricted", core.UnrestrictedReads
	p43.MajorityChance = 0.25
	p44 := base
	p44.Name, p44.Option, p44.Moving = "moving", core.UnrestrictedReads, true
	p44.MaxMoves = 3
	p44.MajorityChance = 0.5
	return []Profile{p41, p42, p43, p44}
}

// BankProfile returns the banking-workload profile (conservation
// audits; commutative customer-agent moves).
func BankProfile() Profile {
	return Profile{
		Name: "bank", Option: core.UnrestrictedReads, Bank: true,
		MinN: 3, MaxN: 5, MinFrags: 2, MaxFrags: 4,
		MinSteps: 12, MaxSteps: 28,
		MaxFaults: 3, MaxMoves: 2,
		LossChance: 0.4, MaxLoss: 0.15,
	}
}

// CompactionProfile returns the long-history profile: an order of
// magnitude more workload steps than the base profiles, broadcast log
// compaction on, agent moves and fault episodes in play — the regime
// where unbounded logs would dominate memory and laggards must catch up
// by snapshot rather than full replay. The invariant ladder audited is
// the same as for the standard profiles.
func CompactionProfile() Profile {
	return Profile{
		Name: "compaction", Option: core.UnrestrictedReads,
		Moving: true, Compaction: true,
		MajorityChance: 0.35,
		MinN:           3, MaxN: 5, MinFrags: 3, MaxFrags: 5,
		MinSteps: 100, MaxSteps: 240,
		MaxFaults: 3, MaxMoves: 2,
		LossChance: 0.3, MaxLoss: 0.15,
	}
}

// PlacementProfile returns the adaptive-placement profile: the
// controller attached with an aggressive deterministic tuning, update
// origins skewed away from the initial homes (so the access matrix
// always shows a better home), partitions, crashes, and message loss.
// A deterministic sustained burst (see Generate) guarantees every seed
// produces at least one automatic migration — the sweep's per-seed
// vacuity guard. The controller only issues prepared protocols for the
// non-commutative counter fragments (with-seq, or majority under
// majority commit), so the full invariant ladder — including counter
// exactness — is audited unchanged.
func PlacementProfile() Profile {
	return Profile{
		Name: "placement", Option: core.UnrestrictedReads,
		Placement:      true,
		MajorityChance: 0.3,
		MinN:           3, MaxN: 4, MinFrags: 3, MaxFrags: 4,
		MinSteps: 30, MaxSteps: 70,
		MaxFaults:  2,
		LossChance: 0.3, MaxLoss: 0.1,
	}
}

// AllProfiles returns every profile ProfileByName resolves: the
// sweep's default set (Profiles, then BankProfile) followed by the
// replay-only extras.
func AllProfiles() []Profile {
	return append(Profiles(), BankProfile(), CompactionProfile(), PlacementProfile())
}

// ProfileByName resolves a profile by name among AllProfiles.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range AllProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Generate derives the full plan for (seed, profile). It is a pure
// function: the same arguments always yield the same plan.
func Generate(seed int64, pr Profile) Plan {
	root := NewRNG(seed)
	topo := root.Split("topology")
	wl := root.Split("workload")
	fl := root.Split("faults")
	mv := root.Split("moves")

	p := Plan{
		Seed:    seed,
		Profile: pr.Name,
		Bank:    pr.Bank,
		Option:  pr.Option,
		N:       topo.IntBetween(pr.MinN, pr.MaxN),
		Horizon: simtime.Duration(topo.IntBetween(1500, 2500)) * time.Millisecond,
	}
	p.Frags = topo.IntBetween(pr.MinFrags, pr.MaxFrags)
	// Copied, not drawn: existing profiles' plans stay byte-identical.
	p.Compaction = pr.Compaction
	p.Placement = pr.Placement
	if pr.Bank {
		p.Option = core.UnrestrictedReads
	}
	p.MajorityCommit = topo.Bool(pr.MajorityChance)
	if topo.Bool(pr.LossChance) {
		p.LossProb = 0.03 + (pr.MaxLoss-0.03)*topo.Float64()
	}

	// Read-access edges. Under AcyclicReads: a random forest over the
	// fragments with random edge orientation (an undirected forest is
	// elementarily acyclic whichever way its edges point). Otherwise:
	// arbitrary pairs — §4.1 serializes them with remote locks, §4.3
	// tolerates them by design.
	if !pr.Bank {
		if pr.Option == core.AcyclicReads {
			for i := 1; i < p.Frags; i++ {
				if topo.Bool(0.25) {
					continue
				}
				parent := topo.Intn(i)
				if topo.Bool(0.5) {
					p.ReadEdges = append(p.ReadEdges, [2]int{i, parent})
				} else {
					p.ReadEdges = append(p.ReadEdges, [2]int{parent, i})
				}
			}
		} else {
			for i := 0; i < p.Frags; i++ {
				for j := 0; j < p.Frags; j++ {
					if i != j && topo.Bool(0.3) {
						p.ReadEdges = append(p.ReadEdges, [2]int{i, j})
					}
				}
			}
		}
	}
	readable := make([][]int, p.Frags)
	for _, e := range p.ReadEdges {
		readable[e[0]] = append(readable[e[0]], e[1])
	}

	// Workload: counter increments reading declared foreign fragments,
	// plus read-only audits from arbitrary nodes.
	steps := wl.IntBetween(pr.MinSteps, pr.MaxSteps)
	for s := 0; s < steps; s++ {
		at := simtime.Duration(wl.Intn(int(p.Horizon/time.Millisecond))) * time.Millisecond
		if pr.Bank {
			st := Step{At: at, Frag: wl.Intn(p.Frags), Kind: StepDeposit,
				Amount: int64(1 + wl.Intn(100))}
			if wl.Bool(0.4) {
				st.Kind = StepWithdraw
			}
			p.Steps = append(p.Steps, st)
			continue
		}
		if wl.Bool(0.18) {
			// Read-only audit over a few counters.
			st := Step{At: at, Frag: -1, Node: wl.Intn(p.N), Kind: StepAudit}
			for _, f := range wl.Perm(p.Frags)[:wl.IntBetween(1, p.Frags)] {
				st.Reads = append(st.Reads, f)
			}
			p.Steps = append(p.Steps, st)
			continue
		}
		st := Step{At: at, Frag: wl.Intn(p.Frags), Kind: StepUpdate}
		for _, f := range readable[st.Frag] {
			if wl.Bool(0.6) {
				st.Reads = append(st.Reads, f)
			}
		}
		if pr.Placement {
			// Skew the declared origins away from the fragment's initial
			// home (i%N): the preferred origin (i+1)%N dominates, so the
			// access matrix always points the controller somewhere better.
			// Drawn only for placement profiles — other profiles' streams
			// are untouched and their plans stay byte-identical.
			if wl.Bool(0.8) {
				st.Origin = (st.Frag + 1) % p.N
			} else {
				st.Origin = wl.Intn(p.N)
			}
		}
		p.Steps = append(p.Steps, st)
	}

	// Placement plans get a deterministic sustained burst, drawn from no
	// RNG stream: every fragment is updated from its preferred foreign
	// origin (i+1)%N every 60ms from 40ms until 300ms before the
	// horizon. The burst keeps each fragment's decayed foreign rate
	// above the controller's decision threshold for essentially the
	// whole run, so at least one automatic migration completes on every
	// seed — even when faults cover part of the run — anchoring the
	// sweep's per-seed vacuity guard.
	if pr.Placement && !pr.Bank {
		for i := 0; i < p.Frags; i++ {
			for at := 40 * time.Millisecond; at < p.Horizon-300*time.Millisecond; at += 60 * time.Millisecond {
				p.Steps = append(p.Steps, Step{
					At: at, Frag: i, Kind: StepUpdate, Origin: (i + 1) % p.N,
				})
			}
		}
	}

	// Moves: spaced episodes so two protocols never overlap on the same
	// fragment; protocol windows stay well inside the spacing.
	if pr.Moving && pr.MaxMoves > 0 && !pr.Bank {
		moves := mv.Intn(pr.MaxMoves + 1)
		at := simtime.Duration(mv.IntBetween(200, 500)) * time.Millisecond
		for m := 0; m < moves && at < p.Horizon; m++ {
			protos := []MoveProtocol{MoveData, MoveSeq, MoveNoPrep}
			if p.MajorityCommit {
				protos = append(protos, MoveMajority)
			}
			mvp := Move{
				At:       at,
				Frag:     mv.Intn(p.Frags),
				To:       mv.Intn(p.N),
				Protocol: protos[mv.Intn(len(protos))],
				Window:   simtime.Duration(mv.IntBetween(100, 400)) * time.Millisecond,
			}
			p.Moves = append(p.Moves, mvp)
			at += mvp.Window + simtime.Duration(mv.IntBetween(500, 900))*time.Millisecond
		}
	}
	if pr.Bank && pr.MaxMoves > 0 {
		moves := mv.Intn(pr.MaxMoves + 1)
		for m := 0; m < moves; m++ {
			p.Moves = append(p.Moves, Move{
				At:   simtime.Duration(mv.IntBetween(200, int(p.Horizon/time.Millisecond))) * time.Millisecond,
				Frag: mv.Intn(p.Frags),
				To:   mv.Intn(p.N),
			})
		}
	}

	// Faults: partition and crash episodes, each self-healing. Crashes
	// avoid windows overlapping an in-flight move (the protocols' own
	// crash tolerance is exercised by the dedicated agentmove tests;
	// here they would make exact-count audits ambiguous), and bank plans
	// never crash the central node 0.
	faults := fl.Intn(pr.MaxFaults + 1)
	horizonMs := int(p.Horizon / time.Millisecond)
	for fi := 0; fi < faults; fi++ {
		at := simtime.Duration(fl.IntBetween(100, horizonMs-200)) * time.Millisecond
		until := at + simtime.Duration(fl.IntBetween(200, 800))*time.Millisecond
		if fl.Bool(0.65) || p.N < 3 {
			p.Faults = append(p.Faults, Fault{
				Kind: FaultPartition, At: at, Until: until,
				Cut: fl.IntBetween(1, p.N-1),
			})
			continue
		}
		node := fl.Intn(p.N)
		if pr.Bank && node == 0 {
			node = 1 + fl.Intn(p.N-1)
		}
		crash := Fault{Kind: FaultCrash, At: at, Until: until, Node: node}
		if overlapsMove(p.Moves, crash) {
			// Deterministically degrade to a partition episode instead.
			p.Faults = append(p.Faults, Fault{
				Kind: FaultPartition, At: at, Until: until,
				Cut: fl.IntBetween(1, p.N-1),
			})
			continue
		}
		p.Faults = append(p.Faults, crash)
	}
	return p
}

// overlapsMove reports whether a crash episode overlaps any move's
// protocol window (with slack).
func overlapsMove(moves []Move, f Fault) bool {
	const slack = 200 * time.Millisecond
	for _, m := range moves {
		end := m.At + m.Window + slack
		if f.At <= end && f.Until >= m.At-slack {
			return true
		}
	}
	return false
}

// --- Go-literal rendering --------------------------------------------

func fmtDur(d simtime.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d%time.Second == 0:
		return fmt.Sprintf("%d * time.Second", d/time.Second)
	case d%time.Millisecond == 0:
		return fmt.Sprintf("%d * time.Millisecond", d/time.Millisecond)
	default:
		return fmt.Sprintf("time.Duration(%d)", int64(d))
	}
}

func fmtOption(o core.ControlOption) string {
	switch o {
	case core.ReadLocks:
		return "core.ReadLocks"
	case core.AcyclicReads:
		return "core.AcyclicReads"
	default:
		return "core.UnrestrictedReads"
	}
}

func fmtProtocol(p MoveProtocol) string {
	switch p {
	case MoveData:
		return "chaoskit.MoveData"
	case MoveSeq:
		return "chaoskit.MoveSeq"
	case MoveMajority:
		return "chaoskit.MoveMajority"
	default:
		return "chaoskit.MoveNoPrep"
	}
}

func fmtInts(xs []int) string {
	if len(xs) == 0 {
		return "nil"
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return "[]int{" + strings.Join(parts, ", ") + "}"
}

// GoLiteral renders the plan as a compilable Go composite literal
// (qualified with the chaoskit and core package names), the form the
// shrinker writes into repro files so a failing scenario can be pasted
// into a regression test verbatim.
func (p Plan) GoLiteral() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaoskit.Plan{\n")
	fmt.Fprintf(&b, "\tSeed:    %d,\n", p.Seed)
	fmt.Fprintf(&b, "\tProfile: %q,\n", p.Profile)
	if p.Bank {
		fmt.Fprintf(&b, "\tBank:    true,\n")
	}
	fmt.Fprintf(&b, "\tOption:  %s,\n", fmtOption(p.Option))
	fmt.Fprintf(&b, "\tN:       %d,\n", p.N)
	fmt.Fprintf(&b, "\tFrags:   %d,\n", p.Frags)
	if p.MajorityCommit {
		fmt.Fprintf(&b, "\tMajorityCommit: true,\n")
	}
	if p.Compaction {
		fmt.Fprintf(&b, "\tCompaction: true,\n")
	}
	if p.Placement {
		fmt.Fprintf(&b, "\tPlacement: true,\n")
	}
	if p.LossProb > 0 {
		fmt.Fprintf(&b, "\tLossProb: %g,\n", p.LossProb)
	}
	fmt.Fprintf(&b, "\tHorizon: %s,\n", fmtDur(p.Horizon))
	if len(p.ReadEdges) > 0 {
		fmt.Fprintf(&b, "\tReadEdges: [][2]int{")
		for i, e := range p.ReadEdges {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "{%d, %d}", e[0], e[1])
		}
		fmt.Fprintf(&b, "},\n")
	}
	if len(p.Steps) > 0 {
		fmt.Fprintf(&b, "\tSteps: []chaoskit.Step{\n")
		for _, s := range p.Steps {
			fmt.Fprintf(&b, "\t\t{At: %s, Frag: %d, Node: %d, Kind: chaoskit.Step%s",
				fmtDur(s.At), s.Frag, s.Node, titleKind(s.Kind))
			if s.Amount != 0 {
				fmt.Fprintf(&b, ", Amount: %d", s.Amount)
			}
			if len(s.Reads) > 0 {
				fmt.Fprintf(&b, ", Reads: %s", fmtInts(s.Reads))
			}
			if s.Origin != 0 {
				fmt.Fprintf(&b, ", Origin: %d", s.Origin)
			}
			fmt.Fprintf(&b, "},\n")
		}
		fmt.Fprintf(&b, "\t},\n")
	}
	if len(p.Faults) > 0 {
		fmt.Fprintf(&b, "\tFaults: []chaoskit.Fault{\n")
		for _, f := range p.Faults {
			if f.Kind == FaultPartition {
				fmt.Fprintf(&b, "\t\t{Kind: chaoskit.FaultPartition, At: %s, Until: %s, Cut: %d},\n",
					fmtDur(f.At), fmtDur(f.Until), f.Cut)
			} else {
				fmt.Fprintf(&b, "\t\t{Kind: chaoskit.FaultCrash, At: %s, Until: %s, Node: %d},\n",
					fmtDur(f.At), fmtDur(f.Until), f.Node)
			}
		}
		fmt.Fprintf(&b, "\t},\n")
	}
	if len(p.Moves) > 0 {
		fmt.Fprintf(&b, "\tMoves: []chaoskit.Move{\n")
		for _, m := range p.Moves {
			fmt.Fprintf(&b, "\t\t{At: %s, Frag: %d, To: %d, Protocol: %s, Window: %s},\n",
				fmtDur(m.At), m.Frag, m.To, fmtProtocol(m.Protocol), fmtDur(m.Window))
		}
		fmt.Fprintf(&b, "\t},\n")
	}
	fmt.Fprintf(&b, "}")
	return b.String()
}

func titleKind(k StepKind) string {
	switch k {
	case StepUpdate:
		return "Update"
	case StepAudit:
		return "Audit"
	case StepDeposit:
		return "Deposit"
	default:
		return "Withdraw"
	}
}
