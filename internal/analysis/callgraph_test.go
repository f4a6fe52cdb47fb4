package analysis_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fragdb/internal/analysis"
)

// loadFixture materializes single-file packages (import path -> source)
// as a fixture tree and loads it.
func loadFixture(t *testing.T, pkgs map[string]string) *analysis.Program {
	t.Helper()
	root := t.TempDir()
	dirs := make(map[string]string, len(pkgs))
	for path, src := range pkgs {
		dir := filepath.Join(root, path)
		if err := os.MkdirAll(dir, 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
		dirs[path] = dir
	}
	prog, err := analysis.LoadDirs(dirs)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// nodeByName finds a call-graph node by its rendered FuncName.
func nodeByName(t *testing.T, cg *analysis.CallGraph, name string) *analysis.FuncNode {
	t.Helper()
	for _, n := range cg.Funcs() {
		if cg.FuncName(n.Obj) == name {
			return n
		}
	}
	t.Fatalf("function %q not in call graph", name)
	return nil
}

// callIn returns the first call expression inside the named function.
func callIn(t *testing.T, prog *analysis.Program, pkgPath, funcName string) (*analysis.Package, *ast.CallExpr) {
	t.Helper()
	pkg := prog.Lookup(pkgPath)
	if pkg == nil {
		t.Fatalf("package %q not loaded", pkgPath)
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != funcName || fd.Body == nil {
				continue
			}
			var call *ast.CallExpr
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call != nil {
					return false
				}
				if c, ok := n.(*ast.CallExpr); ok {
					call = c
					return false
				}
				return true
			})
			if call == nil {
				t.Fatalf("no call expression in %s.%s", pkgPath, funcName)
			}
			return pkg, call
		}
	}
	t.Fatalf("function %s not found in %s", funcName, pkgPath)
	return nil, nil
}

// TestSummaryMutualRecursion: the fixed point must converge on a
// mutually recursive pair, carrying MayBlock around the cycle exactly
// when one member really blocks, and the path renderer must terminate.
func TestSummaryMutualRecursion(t *testing.T) {
	prog := loadFixture(t, map[string]string{"m": `package m

var ch chan int

func even(n int) bool {
	if n == 0 {
		<-ch
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

func pure(n int) int {
	if n == 0 {
		return 0
	}
	return purer(n - 1)
}

func purer(n int) int { return pure(n) }
`})
	cg := prog.CallGraph()
	for _, name := range []string{"m.even", "m.odd"} {
		if sum := cg.Summary(nodeByName(t, cg, name)); sum == nil || !sum.MayBlock {
			t.Errorf("%s: MayBlock = false, want true through the even/odd cycle", name)
		}
	}
	if path := cg.BlockPath(nodeByName(t, cg, "m.odd")); !strings.Contains(path, "channel receive") {
		t.Errorf("BlockPath(m.odd) = %q, want it to reach the channel receive", path)
	}
	for _, name := range []string{"m.pure", "m.purer"} {
		if sum := cg.Summary(nodeByName(t, cg, name)); sum == nil || sum.MayBlock {
			t.Errorf("%s: MayBlock = true, want false for the pure cycle", name)
		}
	}
}

// TestSummaryMethodValues: taking a method value or spawning it on a
// goroutine must not charge the blocking to the current goroutine;
// actually calling it must.
func TestSummaryMethodValues(t *testing.T) {
	prog := loadFixture(t, map[string]string{"c": `package c

type q struct{ ch chan int }

func (p *q) push(v int) { p.ch <- v }

func taker(p *q) func(int) { return p.push }

func spawner(p *q) {
	go p.push(1)
}

func caller(p *q) { p.push(2) }
`})
	cg := prog.CallGraph()
	push := nodeByName(t, cg, "c.q.push")
	if sum := cg.Summary(push); sum == nil || !sum.MayBlock {
		t.Fatal("c.q.push: MayBlock = false, want true (it sends)")
	}
	cases := []struct {
		name      string
		wantBlock bool
		wantEdge  func(analysis.CallEdge) bool
	}{
		{"c.taker", false, func(e analysis.CallEdge) bool { return e.Capture }},
		{"c.spawner", false, func(e analysis.CallEdge) bool { return e.Spawned }},
		{"c.caller", true, func(e analysis.CallEdge) bool { return !e.Capture && !e.Spawned }},
	}
	for _, tc := range cases {
		n := nodeByName(t, cg, tc.name)
		if sum := cg.Summary(n); sum == nil || sum.MayBlock != tc.wantBlock {
			t.Errorf("%s: MayBlock = %v, want %v", tc.name, sum != nil && sum.MayBlock, tc.wantBlock)
		}
		found := false
		for _, e := range n.Edges {
			if cg.FuncName(e.Callee) == "c.q.push" && tc.wantEdge(e) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no edge to c.q.push with the expected capture/spawn flags: %+v", tc.name, n.Edges)
		}
	}
}

// TestInterfaceDispatch: a call through an interface fans out to every
// module-local implementation in CalleesAt and carries the blocking
// implementation's MayBlock into the dispatching function's summary; a
// concrete method call resolves to its one callee.
func TestInterfaceDispatch(t *testing.T) {
	prog := loadFixture(t, map[string]string{"i": `package i

type sink interface{ Put(v int) }

type blocking struct{ ch chan int }

func (b *blocking) Put(v int) { b.ch <- v }

type counting struct{ n int }

func (c *counting) Put(v int) { c.n++ }

func drive(s sink) { s.Put(1) }

func direct(b *blocking) { b.Put(2) }
`})
	cg := prog.CallGraph()

	pkg, dyn := callIn(t, prog, "i", "drive")
	callees := cg.CalleesAt(pkg, dyn)
	names := make([]string, len(callees))
	for k, c := range callees {
		names[k] = cg.FuncName(c.Obj)
	}
	if len(callees) != 2 {
		t.Fatalf("CalleesAt(drive) = %v, want both Put implementations", names)
	}
	if sum := cg.Summary(nodeByName(t, cg, "i.drive")); sum == nil || !sum.MayBlock {
		t.Error("i.drive: MayBlock = false, want true via the blocking implementation")
	}

	pkg, stat := callIn(t, prog, "i", "direct")
	if got := cg.CalleesAt(pkg, stat); len(got) != 1 || cg.FuncName(got[0].Obj) != "i.blocking.Put" {
		t.Errorf("CalleesAt(direct) resolved wrong: %+v", got)
	}
}
