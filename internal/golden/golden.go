// Package golden compares a command's output with a file committed
// under the test's testdata/golden/ directory. Running the test with
// -update rewrites the files from the current output instead, so a
// change that moves an output shows up as a diff of those files.
package golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files from the current output")

// Check compares got with testdata/golden/<name>, failing t with the
// differing lines if they differ, or rewrites the file under -update.
func Check(t testing.TB, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", filepath.FromSlash(name))
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run the test with -update to create it)", err)
	}
	if string(want) != got {
		t.Errorf("output differs from %s (-want +got):\n%s", path, diff(string(want), got))
	}
}

// diff renders the lines between want's and got's common prefix and
// suffix, want's prefixed "-" and got's "+", after the line number
// where they start.
func diff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	pre := 0
	for pre < len(w) && pre < len(g) && w[pre] == g[pre] {
		pre++
	}
	suf := 0
	for suf < len(w)-pre && suf < len(g)-pre && w[len(w)-1-suf] == g[len(g)-1-suf] {
		suf++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "@@ line %d @@\n", pre+1)
	for _, l := range w[pre : len(w)-suf] {
		b.WriteString("-" + l + "\n")
	}
	for _, l := range g[pre : len(g)-suf] {
		b.WriteString("+" + l + "\n")
	}
	return b.String()
}
