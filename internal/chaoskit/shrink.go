package chaoskit

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// DefaultShrinkBudget bounds shrink re-executions per failing plan.
const DefaultShrinkBudget = 200

// ShrinkResult is the outcome of minimizing a failing plan.
type ShrinkResult struct {
	// Original and Minimal bracket the shrink; Minimal still fails.
	Original, Minimal Plan
	// MinimalReport is the audit of the minimal plan.
	MinimalReport *Report
	// Executions counts plan re-runs spent shrinking; Accepted counts
	// the ones that still failed and so became the new best plan.
	Executions, Accepted int
}

// Shrink minimizes a failing plan by re-executing candidate reductions
// deterministically: whole-list drops, ddmin-style chunk removal over
// steps, faults and moves, then dimension reductions (fewer fragments,
// fewer nodes, half the horizon). Any candidate that still fails is
// accepted; the result is 1-minimal with respect to the reductions
// tried within the budget. The caller guarantees Execute(p, opts)
// fails; Shrink panics otherwise, since "shrinking" a passing plan
// indicates a determinism bug worth crashing loudly on.
func Shrink(p Plan, opts RunOpts, budget int) ShrinkResult {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	res := ShrinkResult{Original: p}
	rep := Execute(p, opts)
	if !rep.Failed() {
		panic("chaoskit: Shrink called on a plan that does not fail")
	}
	best, bestRep := p, rep

	fails := func(cand Plan) bool {
		if res.Executions >= budget {
			return false
		}
		res.Executions++
		r := Execute(cand, opts)
		if r.Failed() && cand.Size() < best.Size() {
			best, bestRep = cand, r
			res.Accepted++
			return true
		}
		return false
	}

	for progress := true; progress && res.Executions < budget; {
		progress = false

		// Whole-list drops first: the cheapest big wins.
		if len(best.Faults) > 0 {
			cand := best
			cand.Faults = nil
			progress = fails(cand) || progress
		}
		if len(best.Moves) > 0 {
			cand := best
			cand.Moves = nil
			progress = fails(cand) || progress
		}
		if len(best.Steps) > 0 {
			cand := best
			cand.Steps = nil
			progress = fails(cand) || progress
		}

		// Chunked removal per list.
		progress = shrinkList(len(best.Steps), func(keep []int) Plan {
			cand := best
			cand.Steps = pick(best.Steps, keep)
			return cand
		}, fails) || progress
		progress = shrinkList(len(best.Faults), func(keep []int) Plan {
			cand := best
			cand.Faults = pick(best.Faults, keep)
			return cand
		}, fails) || progress
		progress = shrinkList(len(best.Moves), func(keep []int) Plan {
			cand := best
			cand.Moves = pick(best.Moves, keep)
			return cand
		}, fails) || progress

		// Dimension reductions. The executor maps fragment and node
		// indices modulo the plan dimensions, so shrinking a dimension
		// never invalidates the schedule.
		if best.Frags > 1 {
			cand := best
			cand.Frags--
			cand.ReadEdges = nil
			for _, e := range best.ReadEdges {
				if e[0] < cand.Frags && e[1] < cand.Frags {
					cand.ReadEdges = append(cand.ReadEdges, e)
				}
			}
			progress = fails(cand) || progress
		}
		if best.N > 2 {
			cand := best
			cand.N--
			progress = fails(cand) || progress
		}
		if best.Horizon > 200e6 { // 200ms floor
			cand := best
			cand.Horizon = best.Horizon / 2
			cand.Steps = nil
			for _, s := range best.Steps {
				if s.At < cand.Horizon {
					cand.Steps = append(cand.Steps, s)
				}
			}
			cand.Faults = nil
			for _, f := range best.Faults {
				if f.At < cand.Horizon {
					cand.Faults = append(cand.Faults, f)
				}
			}
			cand.Moves = nil
			for _, m := range best.Moves {
				if m.At < cand.Horizon {
					cand.Moves = append(cand.Moves, m)
				}
			}
			progress = fails(cand) || progress
		}
	}

	res.Minimal, res.MinimalReport = best, bestRep
	return res
}

// shrinkList tries removing chunks of halving sizes from an n-element
// list. build receives the indices to keep (ascending) and returns the
// candidate plan; fails executes it and reports acceptance (mutating
// the caller's best, so subsequent builds start from the shrunk list —
// hence the index set is recomputed from the current length each
// round). Reports whether any removal was accepted.
func shrinkList(n int, build func(keep []int) Plan, fails func(Plan) bool) bool {
	any := false
	for chunk := n / 2; chunk >= 1; chunk /= 2 {
		i := 0
		for i < n {
			if n-chunk <= 0 {
				break
			}
			keep := make([]int, 0, n-chunk)
			for j := 0; j < n; j++ {
				if j < i || j >= i+chunk {
					keep = append(keep, j)
				}
			}
			if fails(build(keep)) {
				n -= min(chunk, n-i)
				any = true
				// Re-scan from the same position over the shorter list.
			} else {
				i += chunk
			}
		}
	}
	return any
}

func pick[T any](items []T, keep []int) []T {
	if len(keep) == 0 {
		return nil
	}
	out := make([]T, 0, len(keep))
	for _, i := range keep {
		if i < len(items) {
			out = append(out, items[i])
		}
	}
	return out
}

// WriteRepro writes the minimal failing plan into dir as a reproducer
// bundle: the plan as a compilable Go literal, the audit report, and
// the global serialization graph in Graphviz DOT form. Returns the
// plan file's path.
func WriteRepro(dir string, res ShrinkResult) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := fmt.Sprintf("seed%d_%s", res.Minimal.Seed, res.Minimal.Profile)
	planPath := filepath.Join(dir, base+".plan.go.txt")

	var b strings.Builder
	fmt.Fprintf(&b, "// Minimal failing plan, shrunk from size %d to %d in %d executions.\n",
		res.Original.Size(), res.Minimal.Size(), res.Executions)
	fmt.Fprintf(&b, "// Replay: chaoskit.Execute(plan, chaoskit.RunOpts{})\n")
	fmt.Fprintf(&b, "// Or:     go run ./cmd/hachaos -replay %d -profile %s\n",
		res.Minimal.Seed, res.Minimal.Profile)
	fmt.Fprintf(&b, "var plan = %s\n", res.Minimal.GoLiteral())
	if err := os.WriteFile(planPath, []byte(b.String()), 0o644); err != nil {
		return "", err
	}

	var r strings.Builder
	fmt.Fprintf(&r, "%s\n\nfailed checks:\n", res.MinimalReport.String())
	for _, c := range res.MinimalReport.Failures() {
		fmt.Fprintf(&r, "  %-22s %v\n", c.Name, c.Err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+".report.txt"), []byte(r.String()), 0o644); err != nil {
		return "", err
	}
	if res.MinimalReport.DOT != "" {
		if err := os.WriteFile(filepath.Join(dir, base+".history.dot"), []byte(res.MinimalReport.DOT), 0o644); err != nil {
			return "", err
		}
	}
	if res.MinimalReport.Trace != "" {
		if err := os.WriteFile(filepath.Join(dir, base+".trace.txt"), []byte(res.MinimalReport.Trace), 0o644); err != nil {
			return "", err
		}
	}
	return planPath, nil
}
