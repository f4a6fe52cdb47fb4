package main

import (
	"fmt"
	"strings"
	"testing"

	"fragdb/internal/exp"
	"fragdb/internal/golden"
)

// Every experiment's table at seed 42 and seeds 1-8 matches the file
// under testdata/golden/seed<s>/<id>, so a change that moves a row
// fails here and names its seed and experiment. Rewrite the files with
// go test ./cmd/haexp -run TestGolden -update.
func TestGolden(t *testing.T) {
	for _, seed := range []int64{42, 1, 2, 3, 4, 5, 6, 7, 8} {
		for _, e := range exp.All() {
			name := fmt.Sprintf("seed%d/%s", seed, e.ID)
			t.Run(name, func(t *testing.T) {
				golden.Check(t, name, runOutput("-seed", fmt.Sprint(seed), "-exp", e.ID))
			})
		}
	}
}

// runOutput runs haexp in process and returns its stdout, its stderr
// and its exit status, in that order.
func runOutput(args ...string) string {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return fmt.Sprintf("%s%sexit %d\n", stdout.String(), stderr.String(), code)
}
