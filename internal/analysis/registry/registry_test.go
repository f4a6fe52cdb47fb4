package registry_test

import (
	"os"
	"testing"

	"fragdb/internal/analysis"
	"fragdb/internal/analysis/registry"
)

// TestAll pins the suite roster.
func TestAll(t *testing.T) {
	all := registry.All()
	if len(all) != 4 {
		t.Fatalf("suite has %d analyzers, want 4", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q incompletely declared", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if registry.ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if registry.ByName("no-such-analyzer") != nil {
		t.Error("ByName on unknown name should be nil")
	}
}

// TestRepoClean runs the whole suite over this repository: the tree
// must stay halint-clean, so a violation anywhere fails the ordinary
// test run, not just the CI lint job.
func TestRepoClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := registry.RunAll(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
