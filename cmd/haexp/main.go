// Command haexp runs the reproduction experiments for "Achieving High
// Availability in Distributed Databases" (Garcia-Molina & Kogan, ICDE
// 1987) and prints their tables.
//
// Usage:
//
//	haexp                  # run every experiment
//	haexp -exp E3          # run one experiment
//	haexp -exp E1,E5,E8    # run a subset
//	haexp -seed 7          # change the deterministic seed
//	haexp -list            # list experiments
//
// Exit status is nonzero if any experiment's measured shape does not
// match the paper's claim.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fragdb/internal/exp"
)

// titles gives each experiment's headline without running it.
var titles = map[string]string{
	"E1":  "Figure 1.1 — the correctness/availability spectrum",
	"E2":  "Section 1 scenario 1 — two $100 withdrawals during a partition",
	"E3":  "Section 1 scenario 2 — two $200 withdrawals during a partition",
	"E4":  "Section 2 — local-view discrepancy vs. partition duration",
	"E5":  "Figure 4.2.1 — warehouse star: acyclic reads vs. read locks",
	"E6":  "Figures 4.3.1-4.3.2 — non-serializable schedule, cyclic GSG",
	"E7":  "Figure 4.3.3 — airline: fragmentwise but not globally serializable",
	"E8":  "Section 4.4 — agent movement protocols",
	"E9":  "Section 4.2 theorem + Properties 1-2 — randomized validation",
	"E10": "Section 1 — reconciliation overhead vs. partition duration",
	"A1":  "extension — availability vs. partition severity (4.1 vs 4.3)",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is haexp with its arguments and output streams passed in; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("haexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which    = fs.String("exp", "", "comma-separated experiment ids (default: all)")
		seed     = fs.Int64("seed", 42, "deterministic simulation seed")
		list     = fs.Bool("list", false, "list experiments and exit")
		traceCap = fs.Int("trace", 0, "per-node flight-recorder capacity (0 disables); instrumented experiments print trailing trace dumps")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	exp.TraceCap = *traceCap

	all := exp.All()
	if *list {
		for _, e := range all {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, titles[e.ID])
		}
		return 0
	}

	want := map[string]bool{}
	if *which != "" {
		for _, id := range strings.Split(*which, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	failed, ran := 0, 0
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		ran++
		r := e.Run(*seed)
		fmt.Fprintln(stdout, r.Table())
		for _, d := range r.TraceDumps {
			fmt.Fprintln(stdout, d)
		}
		if !r.Pass {
			failed++
		}
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "haexp: no experiment matches %q (use -list)\n", *which)
		return 2
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "haexp: %d experiment(s) did not match the paper\n", failed)
		return 1
	}
	return 0
}
