package main

import (
	"fmt"
	"strings"
	"testing"

	"fragdb/internal/chaoskit"
	"fragdb/internal/golden"
)

// hachaos's campaign and replay outputs match the files under
// testdata/golden/: a 64-seed sweep of every profile, a 1024-seed sweep
// of moving, and the -v replay of seeds 0, 1, 7, 23 and 64 of every
// profile. Rewrite them with go test ./cmd/hachaos -run TestGolden
// -update.
func TestGolden(t *testing.T) {
	cases := map[string][]string{
		"moving-1024": {"-seeds", "1024", "-profile", "moving"},
	}
	for _, p := range chaoskit.AllProfiles() {
		cases[p.Name+"-64"] = []string{"-seeds", "64", "-workers", "1", "-profile", p.Name}
		for _, s := range []int{0, 1, 7, 23, 64} {
			cases[fmt.Sprintf("%s-replay%d", p.Name, s)] = []string{"-replay", fmt.Sprint(s), "-profile", p.Name, "-v"}
		}
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			golden.Check(t, name, runOutput(args...))
		})
	}
}

// runOutput runs hachaos in process and returns its stdout, its stderr
// and its exit status, in that order.
func runOutput(args ...string) string {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return fmt.Sprintf("%s%sexit %d\n", stdout.String(), stderr.String(), code)
}
