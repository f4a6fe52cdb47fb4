package exp

import (
	"fmt"

	"fragdb/internal/chaoskit"
)

// RunE9 validates the Section 4.2 theorem and the Section 4.3
// properties by randomized search rather than by a single example. It
// sweeps chaoskit's acyclic and unrestricted profiles, seeds seed to
// seed+23, and reads the audit of every plan:
//
//   - Theorem: with a declared read-access graph that is a random
//     forest (elementarily acyclic), every execution — across random
//     partitions, crashes and message loss — is globally serializable.
//   - Properties 1-2: with unrestricted reads, every execution is
//     fragmentwise serializable, keeps every local serialization graph
//     (Definition 8.3) acyclic, and is mutually consistent after repair.
//
// A counterexample in either campaign would falsify the implementation
// or the theorem; zero violations across all plans is the expected
// result.
func RunE9(seed int64) *Result {
	r := &Result{
		ID:     "E9",
		Title:  "Section 4.2 theorem + Section 4.3 Properties 1-2 — randomized validation",
		Claim:  "acyclic read-access graphs always yield globally serializable executions; unrestricted reads always yield fragmentwise-serializable, convergent executions",
		Header: []string{"campaign", "plans", "txns committed", "violations"},
	}
	const plans = 24
	acyclic, _ := chaoskit.ProfileByName("acyclic")
	unrestricted, _ := chaoskit.ProfileByName("unrestricted")
	res := chaoskit.Sweep([]chaoskit.Profile{acyclic, unrestricted}, seed, plans, chaoskit.SweepOpts{})

	rows := []struct{ profile, rung, label string }{
		{"acyclic", "global-serializability", "acyclic RAG -> global serializability"},
		{"unrestricted", "fragmentwise", "unrestricted -> fragmentwise serializability"},
		{"unrestricted", "local-graphs", "unrestricted -> acyclic local graphs"},
		{"unrestricted", "mutual-consistency", "unrestricted -> mutual consistency"},
	}
	r.Pass = len(res.Failures()) == 0
	for _, row := range rows {
		ran, committed, violations := 0, 0, 0
		for _, rep := range res.Reports {
			if rep.Plan.Profile != row.profile {
				continue
			}
			ran++
			committed += rep.Committed
			audited := false
			for _, c := range rep.Checks {
				if c.Name == row.rung {
					audited = true
					if c.Err != nil {
						violations++
					}
				}
			}
			if !audited {
				r.Pass = false
			}
		}
		if ran != plans {
			r.Pass = false
		}
		r.AddRow(row.label, fmt.Sprint(ran), fmt.Sprint(committed), fmt.Sprint(violations))
	}
	r.AddNote("each plan: chaoskit profile over 3-5 nodes and 3-5 fragments, random update and audit stream, up to 3 partitions or crash-restarts, message loss on 40%% of plans, majority commit on 25%% of unrestricted plans")
	r.AddNote("a plan also fails the campaign on any other rung of its ladder (liveness, counter exactness)")
	return r
}
