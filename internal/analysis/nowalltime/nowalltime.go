// Package nowalltime enforces the determinism contract: packages that
// run under the simulator must take time from simtime and randomness
// from seeded generators, never from the process environment. Every
// chaos sweep, experiment table, and shrunk repro in this repo depends
// on (seed, plan) fully determining execution; one stray time.Now or
// global rand call quietly breaks byte-for-byte reproducibility in a
// way only an expensive multi-seed sweep would notice.
//
// Flagged in deterministic packages:
//   - clock and timer calls on package time (Now, Sleep, After,
//     AfterFunc, Tick, NewTicker, NewTimer, Since, Until) — the
//     time.Duration type, its constants, and duration arithmetic remain
//     fine;
//   - any use of the process-global math/rand (or rand/v2) source —
//     constructing seeded generators (rand.New, rand.NewSource, ...)
//     and naming generator types (*rand.Rand) remain fine;
//   - dot-imports of either package, which would defeat the check.
//
// Exempt packages: internal/rtnet (the explicitly wall-clock
// transport), internal/deploy (the wall-clock deployment harness), and
// the cmd/ and examples/ binaries. The deterministic packages have no
// wall-clock adapter: a deployed node drives their simtime.Scheduler
// from rtnet.Loop. Any exception elsewhere must carry
// `//halint:allow nowalltime -- <why>` on the offending line; the only
// ones today are deadlock watchdogs in tests that run real goroutines.
package nowalltime

import (
	"go/ast"
	"strconv"
	"strings"

	"fragdb/internal/analysis"
)

// Analyzer is the nowalltime checker.
var Analyzer = &analysis.Analyzer{
	Name: "nowalltime",
	Doc:  "forbid wall-clock time and global math/rand in deterministic packages",
	Run:  run,
}

// bannedTime lists package time functions that read or wait on the
// real clock.
var bannedTime = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
	"Since": true, "Until": true,
}

// allowedRand lists the math/rand selectors that do NOT touch the
// global source: seeded-generator constructors and the generator types
// themselves. Everything else on the package is flagged, so newly added
// global helpers are banned by default.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
	"Rand": true, "Source": true, "Source64": true,
	"Zipf": true, "PCG": true, "ChaCha8": true,
}

// Deterministic reports whether an import path belongs to the
// deterministic world: the whole module except the real-time transport
// (internal/rtnet), the wall-clock deployment harness
// (internal/deploy), and the cmd/examples binaries. Bare fixture paths
// follow the same last-segment rule.
func Deterministic(path string) bool {
	path = strings.TrimSuffix(path, analysis.TestSuffix)
	segs := strings.Split(path, "/")
	for _, s := range segs {
		switch s {
		case "rtnet", "deploy", "cmd", "examples":
			return false
		}
	}
	return true
}

func run(pass *analysis.Pass) error {
	if !Deterministic(pass.Pkg.Path) {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		checkFile(pass, f)
		checkTransitive(pass, f)
	}
	return nil
}

// checkTransitive flags calls that cross the determinism boundary: a
// static call from this (deterministic) package to a function defined
// in a wall-clock package (rtnet, deploy, cmd, examples) whose
// call-graph summary reaches a clock or global-rand operation. Direct
// uses inside deterministic packages self-report through checkFile, so
// only the boundary crossing is flagged — with the call path to the
// offending operation.
//
// Interface dispatch is deliberately excluded: a call through
// netsim.Transport may land in rtnet under the deployment harness, but
// which implementation is wired is the composition root's decision —
// the deterministic caller is clean, and the root (deploy/cmd) is
// already outside the contract. Only naming a wall-clock function
// directly crosses the boundary in the source.
func checkTransitive(pass *analysis.Pass, f *ast.File) {
	if !pass.Pkg.Typed() {
		return
	}
	cg := pass.Prog.CallGraph()
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := cg.StaticCalleeAt(pass.Pkg, call)
		if callee == nil || Deterministic(callee.Pkg.Path) {
			return true // dynamic, unresolved, or flagged at its own direct use
		}
		sum := cg.Summary(callee)
		if sum == nil || !sum.WallTime {
			return true
		}
		pass.Reportf(call.Pos(),
			"call into wall-clock package from deterministic package %s: %s (route time through simtime, or justify with //halint:allow nowalltime -- <why>)",
			pass.Pkg.BasePath(), cg.WallPath(callee))
		return true
	})
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	// Map the local names under which time and math/rand are imported.
	clock := map[string]bool{} // local name -> is "time"
	random := map[string]bool{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		isTime := path == "time"
		isRand := path == "math/rand" || path == "math/rand/v2"
		if !isTime && !isRand {
			continue
		}
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch name {
		case ".":
			pass.Reportf(imp.Pos(),
				"dot-import of %s defeats the nowalltime check; import it qualified", path)
			continue
		case "_", "":
			if name == "" {
				name = path[strings.LastIndex(path, "/")+1:]
				if name == "v2" {
					name = "rand"
				}
			} else {
				continue
			}
		}
		if isTime {
			clock[name] = true
		} else {
			random[name] = true
		}
	}
	if len(clock) == 0 && len(random) == 0 {
		return
	}

	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		switch {
		case clock[id.Name] && bannedTime[sel.Sel.Name]:
			pass.Reportf(sel.Pos(),
				"wall-clock call %s.%s in deterministic package %s: route time through simtime (see DESIGN.md, Determinism & locking contract)",
				id.Name, sel.Sel.Name, pass.Pkg.BasePath())
		case random[id.Name] && !allowedRand[sel.Sel.Name]:
			pass.Reportf(sel.Pos(),
				"global math/rand use %s.%s in deterministic package %s: draw from a seeded *rand.Rand or chaoskit.RNG instead",
				id.Name, sel.Sel.Name, pass.Pkg.BasePath())
		}
		return true
	})
}
