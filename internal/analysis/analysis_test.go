package analysis_test

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fragdb/internal/analysis"
)

// writeFixture materializes one single-file package and loads it.
func writeFixture(t *testing.T, src string) *analysis.Program {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	prog, err := analysis.LoadDirs(map[string]string{"p": dir})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestLoadModule loads the real repository: module-local packages must
// come back typed, with test files grouped into syntax-only packages.
func TestLoadModule(t *testing.T) {
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

	core := prog.Lookup("fragdb/internal/core")
	if core == nil || !core.Typed() {
		t.Fatalf("fragdb/internal/core missing or untyped: %+v", core)
	}
	var testPkgs int
	for _, pkg := range prog.Pkgs {
		if strings.HasSuffix(pkg.Path, analysis.TestSuffix) {
			testPkgs++
			if pkg.Typed() {
				t.Errorf("test package %s unexpectedly typed", pkg.Path)
			}
			if pkg.BasePath() == pkg.Path {
				t.Errorf("BasePath did not strip marker from %s", pkg.Path)
			}
		}
	}
	if testPkgs == 0 {
		t.Error("no test-file packages found in module")
	}
}

// TestCrossPackageTypes verifies module-local imports resolve to real
// types (the property wireencodable depends on).
func TestCrossPackageTypes(t *testing.T) {
	wd, _ := os.Getwd()
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	bl := prog.Lookup("fragdb/internal/baselines")
	if bl == nil {
		t.Fatal("baselines not loaded")
	}
	// baselines imports broadcast; its Types scope must expose the
	// imported package's named types through the checker.
	if bl.Types == nil || bl.Types.Scope().Lookup("Entry") == nil {
		t.Fatal("baselines.Entry not in package scope")
	}
}

// TestDirectiveDiagnostics covers the directive lint: bare allows and
// unknown directives are findings; well-formed ones are not.
func TestDirectiveDiagnostics(t *testing.T) {
	prog := writeFixture(t, `package p

//halint:allow nowalltime
var a = 1

//halint:frobnicate
var b = 2

//halint:allow lockedsend -- justified
var c = 3
`)
	diags := analysis.DirectiveDiagnostics(prog)
	if len(diags) != 2 {
		t.Fatalf("got %d directive findings, want 2: %+v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "justification") {
		t.Errorf("first finding should demand a justification: %s", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "frobnicate") {
		t.Errorf("second finding should name the unknown directive: %s", diags[1].Message)
	}
}

// TestStaleAllowDiagnostics covers the stale-allow audit: an allow
// that suppressed a finding is live, one that suppressed nothing is
// stale, and a bare allow is left to the directive lint rather than
// double-reported.
func TestStaleAllowDiagnostics(t *testing.T) {
	prog := writeFixture(t, `package p

//halint:allow testcheck -- live: suppresses the finding below
var a = 1

//halint:allow testcheck -- stale: nothing on this line ever fires
var b = 2

//halint:allow testcheck
var c = 3
`)
	pkg := prog.Pkgs[0]
	f := prog.Fset.File(pkg.Files[0].Pos())
	diags := []analysis.Diagnostic{
		{Pos: f.LineStart(4), Analyzer: "testcheck", Message: "covered"},
	}
	if kept := analysis.Suppress(prog, diags); len(kept) != 0 {
		t.Fatalf("setup: the line-4 finding should have been suppressed, kept %+v", kept)
	}
	stale := analysis.StaleAllowDiagnostics(prog)
	if len(stale) != 1 {
		t.Fatalf("got %d stale-allow findings, want 1: %+v", len(stale), stale)
	}
	if got := prog.Fset.Position(stale[0].Pos).Line; got != 6 {
		t.Errorf("stale allow reported at line %d, want 6", got)
	}
	if !strings.Contains(stale[0].Message, "suppresses no findings") {
		t.Errorf("message should say the allow is dead: %s", stale[0].Message)
	}
}

// TestSuppress pins the allow-directive scope: same line and next line
// only.
func TestSuppress(t *testing.T) {
	prog := writeFixture(t, `package p

//halint:allow testcheck -- scoped to the next line
var a = 1
var b = 2
`)
	pkg := prog.Pkgs[0]
	posAtLine := func(line int) token.Pos {
		f := prog.Fset.File(pkg.Files[0].Pos())
		return f.LineStart(line)
	}
	diags := []analysis.Diagnostic{
		{Pos: posAtLine(4), Analyzer: "testcheck", Message: "covered"},
		{Pos: posAtLine(5), Analyzer: "testcheck", Message: "out of range"},
		{Pos: posAtLine(4), Analyzer: "othercheck", Message: "wrong analyzer"},
	}
	kept := analysis.Suppress(prog, diags)
	if len(kept) != 2 {
		t.Fatalf("got %d findings after suppression, want 2: %+v", len(kept), kept)
	}
	for _, d := range kept {
		if d.Message == "covered" {
			t.Errorf("allow directive failed to suppress the covered finding")
		}
	}
}
