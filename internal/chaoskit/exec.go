package chaoskit

import (
	"fmt"
	"strings"
	"time"

	"fragdb/internal/agentmove"
	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/history"
	"fragdb/internal/metrics"
	"fragdb/internal/netsim"
	"fragdb/internal/placement"
	"fragdb/internal/workload"
)

// txnTimeout bounds every chaos transaction so schedules with permanent
// partitions still settle: a blocked transaction times out instead of
// wedging the run.
const txnTimeout = 2 * time.Second

// chaosCompactRetain is the per-stream retention slack used when a plan
// enables broadcast compaction. Chaos plans are short relative to the
// production default (32), so an aggressive slack is needed for the
// horizon to actually advance — a compaction sweep that never compacts
// proves nothing. Ignored by plans with Compaction false.
const chaosCompactRetain = 8

// bankClusterConfig builds the banking workload's cluster config from a
// plan (the bank forces its own option and topology).
func bankClusterConfig(p Plan, opts RunOpts) core.Config {
	return core.Config{
		N:             p.N,
		Seed:          p.Seed,
		Compaction:    p.Compaction,
		CompactRetain: chaosCompactRetain,
		LossProb:      p.LossProb,
		TxnTimeout:    txnTimeout,
		TraceCap:      opts.TraceCap,
	}
}

// settleBudget is the extra virtual time a run may spend converging
// after the horizon (network fully repaired).
const settleBudget = 4 * time.Minute

// Check is one invariant check's outcome.
type Check struct {
	// Name identifies the rung of the invariant ladder.
	Name string
	// Err is nil when the check passed.
	Err error
}

// Report is the outcome of executing one plan.
type Report struct {
	Plan Plan
	// Settled reports convergence within the settle budget.
	Settled bool
	// Submitted / Committed count workload transactions actually
	// submitted (steps firing while the target node is down are skipped)
	// and committed.
	Submitted, Committed int
	// MovesDone counts agent moves whose protocol completed.
	MovesDone int
	// AutoMoves counts migrations the adaptive placement controller
	// completed on its own (placement plans only) — the placement
	// sweep's per-seed vacuity guard.
	AutoMoves int
	// Checks is the full invariant ladder, in evaluation order.
	Checks []Check
	// DOT is the global serialization graph (Graphviz), captured only
	// when some check failed, for repro dumps.
	DOT string
	// Trace is the per-node flight-recorder dump (trailing window),
	// captured only when some check failed and RunOpts.TraceCap was
	// positive. It shows each node's causal event history — submit,
	// lock wait/grant/wound, quasi broadcast, remote apply, commit or
	// abort with cause — leading up to the failure.
	Trace string
}

// Failed reports whether any check failed.
func (r *Report) Failed() bool {
	for _, c := range r.Checks {
		if c.Err != nil {
			return true
		}
	}
	return false
}

// Failures returns the failed checks.
func (r *Report) Failures() []Check {
	var out []Check
	for _, c := range r.Checks {
		if c.Err != nil {
			out = append(out, c)
		}
	}
	return out
}

// String summarizes the report on one line.
func (r *Report) String() string {
	status := "ok"
	if f := r.Failures(); len(f) > 0 {
		names := make([]string, len(f))
		for i, c := range f {
			names[i] = c.Name
		}
		status = "FAIL[" + strings.Join(names, ",") + "]"
	}
	return fmt.Sprintf("seed=%d profile=%s n=%d frags=%d txns=%d/%d %s",
		r.Plan.Seed, r.Plan.Profile, r.Plan.N, r.Plan.Frags,
		r.Committed, r.Submitted, status)
}

// RunOpts configures one execution.
type RunOpts struct {
	// Chaos, if non-nil, receives the campaign counters.
	Chaos *metrics.Chaos
	// Sabotage, if non-nil, runs after settle and before the audit with
	// full cluster access. Tests use it as a fault-injection double: a
	// sabotage that corrupts one replica must be caught by the auditor
	// and survive shrinking, proving the harness can actually fail.
	Sabotage func(cl *core.Cluster, p Plan)
	// TraceCap, when positive, arms a per-node flight recorder of that
	// capacity; if the audit fails, the trailing trace window of every
	// node is dumped into Report.Trace for the repro bundle.
	TraceCap int
}

// traceDumpTail is how many trailing events per node a failing audit
// dumps into Report.Trace.
const traceDumpTail = 120

func fragID(i int) fragments.FragmentID {
	return fragments.FragmentID(fmt.Sprintf("f%d", i))
}

func ctrObj(i int) fragments.ObjectID {
	return fragments.ObjectID(fmt.Sprintf("f%d/ctr", i))
}

func agentID(i int) fragments.AgentID {
	return fragments.AgentID(fmt.Sprintf("chaos:%d", i))
}

func acctName(i int) string { return fmt.Sprintf("acct%d", i) }

// Execute runs the plan on a fresh deterministic cluster and audits the
// per-option invariant ladder. The same plan always yields the same
// report (check names, pass/fail pattern, and counts).
func Execute(p Plan, opts RunOpts) *Report {
	if opts.Chaos != nil {
		opts.Chaos.Plans.Add(1)
	}
	var rep *Report
	if p.Bank {
		rep = executeBank(p, opts)
	} else {
		rep = executeCounters(p, opts)
	}
	if opts.Chaos != nil {
		opts.Chaos.TxnsSubmitted.Add(uint64(rep.Submitted))
		opts.Chaos.TxnsCommitted.Add(uint64(rep.Committed))
		opts.Chaos.FaultsInjected.Add(uint64(len(p.Faults)))
		opts.Chaos.MovesScheduled.Add(uint64(len(p.Moves)))
		for _, c := range rep.Checks {
			if c.Err != nil {
				opts.Chaos.ChecksFailed.Add(1)
			} else {
				opts.Chaos.ChecksPassed.Add(1)
			}
		}
		if rep.Failed() {
			opts.Chaos.PlanFailures.Add(1)
		}
	}
	return rep
}

// scheduleFaults installs the fault episodes on the cluster's clock.
// Every episode self-heals; Heal/restart of one episode may repair an
// overlapping one early, which is fine — the schedule is deterministic
// either way, and RestartAll at the horizon guarantees full repair.
func scheduleFaults(cl *core.Cluster, p Plan) {
	base := cl.Now()
	for _, f := range p.Faults {
		f := f
		switch f.Kind {
		case FaultPartition:
			var left, right []netsim.NodeID
			for i := 0; i < p.N; i++ {
				if i < f.Cut {
					left = append(left, netsim.NodeID(i))
				} else {
					right = append(right, netsim.NodeID(i))
				}
			}
			cl.Net().ScheduleSplit(base.Add(f.At), left, right)
			cl.Net().ScheduleHeal(base.Add(f.Until))
		case FaultCrash:
			node := netsim.NodeID(f.Node % p.N)
			cl.Net().ScheduleNodeDown(base.Add(f.At), node, true)
			cl.Sched().At(base.Add(f.Until), func() {
				cl.Node(node).SimulateCrashRestart()
				cl.Net().SetNodeDown(node, false)
			})
		}
	}
}

// executeCounters runs the counter workload: fragment i holds one
// counter object; updates increment it (optionally reading foreign
// counters along declared edges); audits read several counters.
func executeCounters(p Plan, opts RunOpts) *Report {
	rep := &Report{Plan: p}
	cfg := core.Config{
		N:              p.N,
		Option:         p.Option,
		Seed:           p.Seed,
		MajorityCommit: p.MajorityCommit,
		Compaction:     p.Compaction,
		CompactRetain:  chaosCompactRetain,
		LossProb:       p.LossProb,
		TxnTimeout:     txnTimeout,
		TraceCap:       opts.TraceCap,
	}
	cl := core.NewCluster(cfg)
	for i := 0; i < p.Frags; i++ {
		if err := cl.Catalog().AddFragment(fragID(i), ctrObj(i)); err != nil {
			panic(err)
		}
		cl.Tokens().Assign(fragID(i), agentID(i), netsim.NodeID(i%p.N))
	}
	for _, e := range p.ReadEdges {
		cl.DeclareRead(fragID(e[0]), fragID(e[1]))
	}
	if err := cl.Start(); err != nil {
		// A plan the engine rejects outright (should not happen for
		// generated plans) is itself a finding.
		rep.Checks = append(rep.Checks, Check{Name: "start", Err: err})
		return rep
	}
	for i := 0; i < p.Frags; i++ {
		if err := cl.Load(ctrObj(i), int64(0)); err != nil {
			panic(err)
		}
	}

	scheduleFaults(cl, p)

	// Placement plans attach the adaptive controller with a fast,
	// deterministic tuning: decisions every 100ms, short decay so the
	// generated burst registers immediately, and an aggressive
	// hysteresis so the skewed origins actually trigger migrations
	// within the short chaos horizon. The counter fragments are
	// non-commutative, so the loop only ever issues prepared protocols
	// (with-seq / majority) and the full invariant ladder stands.
	var loop *placement.SimLoop
	if p.Placement {
		loop = placement.AttachSim(cl, placement.Config{
			Interval:    100 * time.Millisecond,
			HalfLife:    300 * time.Millisecond,
			MinRate:     1,
			Hysteresis:  1.3,
			Cooldown:    500 * time.Millisecond,
			MaxInFlight: 2,
			MoveWindow:  300 * time.Millisecond,
		})
	}

	committedInc := make([]int, p.Frags)
	for _, s := range p.Steps {
		s := s
		switch s.Kind {
		case StepUpdate:
			cl.Sched().At(cl.Now().Add(s.At), func() {
				frag := s.Frag % p.Frags
				home, ok := cl.Tokens().HomeOfFragment(fragID(frag))
				if !ok || cl.Net().NodeDown(home) {
					// A crashed engine must not accept submissions; the
					// network model only drops its messages, so skipping
					// here is part of the crash semantics, not a
					// convenience.
					return
				}
				rep.Submitted++
				spec := core.TxnSpec{
					Agent:    agentID(frag),
					Fragment: fragID(frag),
					Label:    fmt.Sprintf("inc:f%d", frag),
					Timeout:  txnTimeout,
				}
				if p.Placement {
					spec.Origin = netsim.NodeID(s.Origin % p.N)
					spec.OriginSet = true
				}
				spec.Program = func(tx *core.Tx) error {
					for _, r := range s.Reads {
						if _, err := tx.ReadInt(ctrObj(r % p.Frags)); err != nil {
							return err
						}
					}
					v, err := tx.ReadInt(ctrObj(frag))
					if err != nil {
						return err
					}
					return tx.Write(ctrObj(frag), v+1)
				}
				cl.Node(home).Submit(spec, func(r core.TxnResult) {
					if r.Committed {
						rep.Committed++
						committedInc[frag]++
					}
				})
			})
		case StepAudit:
			cl.Sched().At(cl.Now().Add(s.At), func() {
				node := netsim.NodeID(s.Node % p.N)
				if cl.Net().NodeDown(node) {
					return
				}
				rep.Submitted++
				cl.Node(node).Submit(core.TxnSpec{
					Agent:   fragments.NodeAgent(node),
					Label:   "audit",
					Timeout: txnTimeout,
					Program: func(tx *core.Tx) error {
						for _, r := range s.Reads {
							if _, err := tx.ReadInt(ctrObj(r % p.Frags)); err != nil {
								return err
							}
						}
						return nil
					},
				}, func(r core.TxnResult) {
					if r.Committed {
						rep.Committed++
					}
				})
			})
		}
	}

	for _, m := range p.Moves {
		m := m
		cl.Sched().At(cl.Now().Add(m.At), func() {
			agent := agentID(m.Frag % p.Frags)
			to := netsim.NodeID(m.To % p.N)
			done := func(r agentmove.Result) {
				if r.Completed {
					rep.MovesDone++
				}
			}
			switch m.Protocol {
			case MoveData:
				agentmove.MoveWithData(cl, agent, to, m.Window, done)
			case MoveSeq:
				agentmove.MoveWithSeq(cl, agent, to, m.Window, done)
			case MoveMajority:
				agentmove.MoveMajority(cl, agent, to, m.Window, done)
			case MoveNoPrep:
				agentmove.MoveNoPrep(cl, agent, to, done)
			}
		})
	}

	cl.RunFor(p.Horizon)
	cl.RestartAll()
	rep.Settled = cl.Settle(settleBudget)
	if loop != nil {
		loop.Stop()
		rep.AutoMoves = loop.Completed
	}

	if opts.Sabotage != nil {
		opts.Sabotage(cl, p)
	}

	audit(cl, p, rep, func() []Check {
		if p.HasNoPrepMove() {
			// Missing transactions may have been dropped by the recovery
			// repackaging; the exact count is not an invariant here.
			return nil
		}
		var out []Check
		for i := 0; i < p.Frags; i++ {
			want := int64(committedInc[i])
			var err error
			for n := 0; n < p.N; n++ {
				v, _ := cl.Node(netsim.NodeID(n)).Store().Get(ctrObj(i))
				got, _ := v.(int64)
				if got != want {
					err = fmt.Errorf("fragment f%d: node %d holds counter %d, %d increments committed",
						i, n, got, want)
					break
				}
			}
			if err != nil {
				out = append(out, Check{Name: "counter-exactness", Err: err})
				break
			}
		}
		if out == nil {
			out = append(out, Check{Name: "counter-exactness"})
		}
		return out
	})
	if rep.Failed() && opts.TraceCap > 0 {
		rep.Trace = cl.TraceDump(traceDumpTail)
	}
	cl.Shutdown()
	return rep
}

// executeBank runs the banking workload and audits conservation: after
// the central office has processed all activity, each recorded balance
// must equal the initial balance plus committed deposits, minus
// committed withdrawals and assessed fines.
func executeBank(p Plan, opts RunOpts) *Report {
	rep := &Report{Plan: p}
	accounts := make([]string, p.Frags)
	homes := make(map[string]netsim.NodeID, p.Frags)
	for i := range accounts {
		accounts[i] = acctName(i)
		homes[accounts[i]] = netsim.NodeID(i % p.N)
	}
	const initialBalance = 500
	bank, err := workload.NewBank(workload.BankConfig{
		Cluster:        bankClusterConfig(p, opts),
		CentralNode:    0,
		Accounts:       accounts,
		CustomerHome:   homes,
		InitialBalance: initialBalance,
		OverdraftFine:  25,
	})
	if err != nil {
		rep.Checks = append(rep.Checks, Check{Name: "start", Err: err})
		return rep
	}
	cl := bank.Cluster()

	scheduleFaults(cl, p)

	committedAmount := make([]int64, p.Frags)
	for _, s := range p.Steps {
		s := s
		cl.Sched().At(cl.Now().Add(s.At), func() {
			acct := accounts[s.Frag%p.Frags]
			home, ok := cl.Tokens().Home(workload.CustomerAgent(acct))
			if !ok || cl.Net().NodeDown(home) {
				return
			}
			rep.Submitted++
			amount := s.Amount
			if s.Kind == StepWithdraw {
				amount = -amount
			}
			done := func(r core.TxnResult) {
				if r.Committed {
					rep.Committed++
					committedAmount[s.Frag%p.Frags] += amount
				}
			}
			if s.Kind == StepWithdraw {
				bank.WithdrawWithTimeout(home, acct, s.Amount, txnTimeout, done)
			} else {
				bank.Deposit(home, acct, s.Amount, done)
			}
		})
	}

	for _, m := range p.Moves {
		m := m
		cl.Sched().At(cl.Now().Add(m.At), func() {
			if err := bank.MoveCustomer(accounts[m.Frag%p.Frags], netsim.NodeID(m.To%p.N)); err == nil {
				rep.MovesDone++
			}
		})
	}

	cl.RunFor(p.Horizon)
	cl.RestartAll()
	rep.Settled = cl.Settle(settleBudget)

	if opts.Sabotage != nil {
		opts.Sabotage(cl, p)
	}

	audit(cl, p, rep, func() []Check {
		fines := make(map[string]int64)
		for _, l := range bank.Letters() {
			fines[l.Account] += l.Fine
		}
		for i, acct := range accounts {
			want := initialBalance + committedAmount[i] - fines[acct]
			got := bank.Balance(0, acct)
			if got != want {
				return []Check{{Name: "conservation", Err: fmt.Errorf(
					"account %s: balance %d, want %d (initial %d + committed %d - fines %d)",
					acct, got, want, initialBalance, committedAmount[i], fines[acct])}}
			}
		}
		return []Check{{Name: "conservation"}}
	})
	if rep.Failed() && opts.TraceCap > 0 {
		rep.Trace = cl.TraceDump(traceDumpTail)
	}
	cl.Shutdown()
	return rep
}

// audit evaluates the invariant ladder on a settled cluster and appends
// the outcomes to the report. extra contributes the workload-specific
// rungs (counter exactness, conservation).
func audit(cl *core.Cluster, p Plan, rep *Report, extra func() []Check) {
	// Liveness first: a wedged cluster voids the other guarantees, and
	// naming the wedge precisely beats a generic consistency failure.
	var liveErr error
	switch {
	case !rep.Settled:
		liveErr = fmt.Errorf("did not converge within %v after repair", settleBudget)
	case cl.ActiveTxnCount() > 0:
		liveErr = fmt.Errorf("%d transactions still active after settle", cl.ActiveTxnCount())
	case cl.BufferedQuasiCount() > 0:
		liveErr = fmt.Errorf("%d quasi-transactions still buffered after settle", cl.BufferedQuasiCount())
	}
	rep.Checks = append(rep.Checks, Check{Name: "liveness", Err: liveErr})

	// Mutual consistency holds under every option (Section 3).
	rep.Checks = append(rep.Checks, Check{Name: "mutual-consistency", Err: cl.CheckMutualConsistency()})

	// The serializability rungs are off the table after a Section 4.4.3
	// no-preparation move: a missing transaction repackaged at the new
	// home (rule A(2)) may install in different orders at different
	// replicas, so the paper credits that protocol with mutual
	// consistency only — and the local-graph premise (Definition 8.3)
	// falls with it.
	if !p.HasNoPrepMove() {
		rep.Checks = append(rep.Checks, Check{Name: "local-graphs", Err: cl.Recorder().CheckLocalGraphs()})
		rep.Checks = append(rep.Checks, Check{Name: "fragmentwise", Err: cl.Recorder().CheckFragmentwise()})
	}

	// Full global serializability for the Section 4.1/4.2 options.
	if p.Option == core.ReadLocks || p.Option == core.AcyclicReads {
		rep.Checks = append(rep.Checks, Check{Name: "global-serializability",
			Err: cl.Recorder().CheckGlobal(history.Options{})})
	}

	if extra != nil {
		rep.Checks = append(rep.Checks, extra()...)
	}

	if rep.Failed() {
		rep.DOT = cl.Recorder().GlobalGraph(history.Options{}).DOT("global")
	}
}

// ReplaySame re-executes the plan and reports whether the audit outcome
// (check names and pass/fail pattern) is identical — the determinism
// contract the sweep spot-checks.
func ReplaySame(p Plan, opts RunOpts, prev *Report) bool {
	next := Execute(p, opts)
	if len(next.Checks) != len(prev.Checks) ||
		next.Submitted != prev.Submitted || next.Committed != prev.Committed {
		return false
	}
	for i := range next.Checks {
		if next.Checks[i].Name != prev.Checks[i].Name {
			return false
		}
		if (next.Checks[i].Err == nil) != (prev.Checks[i].Err == nil) {
			return false
		}
	}
	return true
}
