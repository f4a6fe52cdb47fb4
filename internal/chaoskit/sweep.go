package chaoskit

import (
	"fmt"
	"sync"

	"fragdb/internal/core"
)

// SweepOpts configures a seed sweep.
type SweepOpts struct {
	// Workers bounds parallel plan executions (each plan runs on its own
	// private cluster, so workers never share mutable state). Default 1.
	Workers int
	// Shrink minimizes every failing plan after the sweep.
	Shrink bool
	// ShrinkBudget bounds re-executions per shrink (default
	// DefaultShrinkBudget).
	ShrinkBudget int
	// ReproDir, if non-empty, receives a reproducer bundle per shrunk
	// failure.
	ReproDir string
	// Sabotage is passed through to every execution (tests of the
	// harness itself).
	Sabotage func(cl *core.Cluster, p Plan)
	// TraceCap arms the per-node flight recorder on every execution
	// (see RunOpts.TraceCap); failing plans then carry their trailing
	// trace window into the repro bundle.
	TraceCap int
	// Log, if non-nil, receives one progress line per plan.
	Log func(string)
}

// SweepResult is the outcome of a sweep.
type SweepResult struct {
	// Reports holds one report per (profile, seed), profile-major in
	// seed order — a deterministic layout regardless of worker count.
	Reports []*Report
	// Shrinks holds one entry per failing plan when Shrink was set.
	Shrinks []ShrinkResult
	// ReproPaths lists the plan files written to ReproDir.
	ReproPaths []string
}

// Failures returns the failing reports.
func (s *SweepResult) Failures() []*Report {
	var out []*Report
	for _, r := range s.Reports {
		if r != nil && r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

// Tally sums a sweep's plans: invariant checks, workload transactions,
// fault and move schedules, and the shrinker's work.
type Tally struct {
	Plans, PlanFailures            int
	ChecksPassed, ChecksFailed     int
	TxnsSubmitted, TxnsCommitted   int
	FaultsInjected, MovesScheduled int
	ShrinkSteps, ShrinkAccepted    int
}

// Tally sums the sweep's reports and shrinks. Shrink re-executions
// count as shrink steps only, not as plans.
func (s *SweepResult) Tally() Tally {
	var t Tally
	for _, r := range s.Reports {
		t.Plans++
		if r.Failed() {
			t.PlanFailures++
		}
		for _, c := range r.Checks {
			if c.Err != nil {
				t.ChecksFailed++
			} else {
				t.ChecksPassed++
			}
		}
		t.TxnsSubmitted += r.Submitted
		t.TxnsCommitted += r.Committed
		t.FaultsInjected += len(r.Plan.Faults)
		t.MovesScheduled += len(r.Plan.Moves)
	}
	for _, sr := range s.Shrinks {
		t.ShrinkSteps += sr.Executions
		t.ShrinkAccepted += sr.Accepted
	}
	return t
}

// Sweep generates and executes perProfile plans for every profile,
// seeds startSeed, startSeed+1, ..., optionally shrinking failures.
// The report layout and every individual report are deterministic;
// only wall-clock scheduling varies with Workers.
func Sweep(profiles []Profile, startSeed int64, perProfile int, opts SweepOpts) *SweepResult {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	type job struct {
		idx  int
		pr   Profile
		seed int64
	}
	jobs := make([]job, 0, len(profiles)*perProfile)
	for pi, pr := range profiles {
		for s := 0; s < perProfile; s++ {
			jobs = append(jobs, job{idx: pi*perProfile + s, pr: pr, seed: startSeed + int64(s)})
		}
	}

	res := &SweepResult{Reports: make([]*Report, len(jobs))}
	runOpts := RunOpts{Sabotage: opts.Sabotage, TraceCap: opts.TraceCap}

	ch := make(chan job)
	var wg sync.WaitGroup
	var logMu sync.Mutex
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				rep := Execute(Generate(j.seed, j.pr), runOpts)
				res.Reports[j.idx] = rep
				if opts.Log != nil {
					logMu.Lock()
					opts.Log(rep.String())
					logMu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()

	if opts.Shrink {
		for _, rep := range res.Failures() {
			sr := Shrink(rep.Plan, runOpts, opts.ShrinkBudget)
			res.Shrinks = append(res.Shrinks, sr)
			if opts.Log != nil {
				opts.Log(fmt.Sprintf("shrunk seed=%d profile=%s: size %d -> %d (%d executions)",
					sr.Minimal.Seed, sr.Minimal.Profile,
					sr.Original.Size(), sr.Minimal.Size(), sr.Executions))
			}
			if opts.ReproDir != "" {
				path, err := WriteRepro(opts.ReproDir, sr)
				if err != nil && opts.Log != nil {
					opts.Log("repro write failed: " + err.Error())
					continue
				}
				if err == nil {
					res.ReproPaths = append(res.ReproPaths, path)
				}
			}
		}
	}
	return res
}
