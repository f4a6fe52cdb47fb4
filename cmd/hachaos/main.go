// Command hachaos drives the chaoskit harness from the command line:
// seeded chaos plans — topology, workload, partitions, crashes, agent
// moves — executed on the deterministic simulator and audited against
// each control option's invariant ladder (mutual consistency always;
// fragmentwise serializability for Sections 4.3/4.4; full global
// serializability for Sections 4.1/4.2; conservation for the banking
// workload; liveness after repair). Failing plans are shrunk to
// minimal reproducers.
//
//	hachaos -seeds 64                         # 64 seeds x all profiles
//	hachaos -seeds 200 -profile moving -workers 8
//	hachaos -replay 15 -profile moving -v     # re-run one plan exactly
//	hachaos -seeds 64 -shrink -out repros/    # minimize any failures
//
// Exit status is nonzero on any invariant violation. The same seeds
// always produce the same plans, executions, and verdicts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"fragdb/internal/chaoskit"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is hachaos with its arguments and output streams passed in; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hachaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds    = fs.Int("seeds", 64, "seeds per profile")
		start    = fs.Int64("start", 1, "first seed")
		profile  = fs.String("profile", "all", profileUsage())
		workers  = fs.Int("workers", runtime.NumCPU(), "parallel plan executions")
		shrink   = fs.Bool("shrink", false, "minimize failing plans")
		out      = fs.String("out", "", "directory for reproducer bundles (implies -shrink)")
		replay   = fs.Int64("replay", 0, "re-run the single plan with this seed (requires one -profile)")
		verbose  = fs.Bool("v", false, "print one line per plan")
		traceCap = fs.Int("trace", 0, "per-node flight-recorder capacity (0 disables); failing plans dump their trailing trace")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	replaying := false
	fs.Visit(func(f *flag.Flag) { replaying = replaying || f.Name == "replay" })

	if *seeds < 1 {
		fmt.Fprintln(stderr, "hachaos: -seeds must be >= 1")
		return 2
	}
	profiles, err := selectProfiles(*profile)
	if err != nil {
		fmt.Fprintln(stderr, "hachaos:", err)
		return 2
	}

	if replaying {
		if len(profiles) != 1 {
			fmt.Fprintln(stderr, "hachaos: -replay needs exactly one -profile")
			return 2
		}
		plan := chaoskit.Generate(*replay, profiles[0])
		if *verbose {
			fmt.Fprintln(stdout, plan.GoLiteral())
		}
		rep := chaoskit.Execute(plan, chaoskit.RunOpts{TraceCap: *traceCap})
		fmt.Fprintln(stdout, rep.String())
		for _, c := range rep.Failures() {
			fmt.Fprintf(stdout, "  %-22s %v\n", c.Name, c.Err)
		}
		if rep.Trace != "" {
			fmt.Fprintln(stdout, rep.Trace)
		}
		if rep.Failed() {
			return 1
		}
		return 0
	}

	opts := chaoskit.SweepOpts{
		Workers:  *workers,
		Shrink:   *shrink || *out != "",
		ReproDir: *out,
		TraceCap: *traceCap,
	}
	if *verbose {
		opts.Log = func(line string) { fmt.Fprintln(stdout, line) }
	}
	res := chaoskit.Sweep(profiles, *start, *seeds, opts)

	fmt.Fprintf(stdout, "campaign: %d plans across %d profile(s), seeds %d..%d\n",
		len(res.Reports), len(profiles), *start, *start+int64(*seeds)-1)
	fmt.Fprint(stdout, tallyTable(res.Tally()))

	failures := res.Failures()
	for _, rep := range failures {
		fmt.Fprintf(stdout, "FAIL %s\n", rep.String())
		for _, c := range rep.Failures() {
			fmt.Fprintf(stdout, "  %-22s %v\n", c.Name, c.Err)
		}
		if rep.Trace != "" {
			fmt.Fprintln(stdout, rep.Trace)
		}
	}
	for _, sr := range res.Shrinks {
		fmt.Fprintf(stdout, "shrunk seed=%d profile=%s: size %d -> %d in %d executions\n",
			sr.Minimal.Seed, sr.Minimal.Profile,
			sr.Original.Size(), sr.Minimal.Size(), sr.Executions)
	}
	for _, p := range res.ReproPaths {
		fmt.Fprintln(stdout, "repro:", p)
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "hachaos: %d failing plan(s) — counterexample found!\n", len(failures))
		return 1
	}
	fmt.Fprintln(stdout, "all invariants held")
	return 0
}

// tallyTable renders a campaign tally as an aligned two-column table.
func tallyTable(t chaoskit.Tally) string {
	rows := [][2]string{
		{"plans run", fmt.Sprint(t.Plans)},
		{"plans failed", fmt.Sprint(t.PlanFailures)},
		{"invariant checks passed", fmt.Sprint(t.ChecksPassed)},
		{"invariant checks failed", fmt.Sprint(t.ChecksFailed)},
		{"txns submitted", fmt.Sprint(t.TxnsSubmitted)},
		{"txns committed", fmt.Sprint(t.TxnsCommitted)},
		{"fault episodes injected", fmt.Sprint(t.FaultsInjected)},
		{"agent moves scheduled", fmt.Sprint(t.MovesScheduled)},
		{"shrink steps tried", fmt.Sprint(t.ShrinkSteps)},
		{"shrink steps accepted", fmt.Sprint(t.ShrinkAccepted)},
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-23s  %s\n", r[0], r[1])
	}
	return b.String()
}

// profileNames lists every profile -profile accepts, comma-separated.
func profileNames() string {
	var names []string
	for _, p := range chaoskit.AllProfiles() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ",")
}

// profileUsage is the -profile flag's usage text.
func profileUsage() string {
	return "profiles to sweep: comma list of " + profileNames() +
		`, or "all" (readlocks through bank)`
}

func selectProfiles(arg string) ([]chaoskit.Profile, error) {
	if arg == "all" {
		return append(chaoskit.Profiles(), chaoskit.BankProfile()), nil
	}
	var out []chaoskit.Profile
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		pr, ok := chaoskit.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q (known: %s)", name, profileNames())
		}
		out = append(out, pr)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no profiles selected")
	}
	return out, nil
}
