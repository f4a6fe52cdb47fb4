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
//   - dot-imports of either package, which would defeat the check;
//   - in non-test files, an import of an exempt package: calling into
//     the wall-clock world is reading the wall clock one step removed.
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
		if !strings.HasSuffix(pass.Pkg.Path, analysis.TestSuffix) {
			checkImports(pass, f)
		}
		checkFile(pass, f)
	}
	return nil
}

// checkImports flags an import of a wall-clock package (rtnet, deploy,
// cmd, examples) from a deterministic package's non-test file. The
// direction is one way: a deployed node's composition root wires the
// deterministic engine to rtnet, never the reverse. Test files may
// import across — a simulator test can drive a real transport.
func checkImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || Deterministic(path) {
			continue
		}
		pass.Reportf(imp.Pos(),
			"deterministic package %s imports wall-clock package %s: the composition root (deploy, cmd) wires the two together, never the engine (or justify with //halint:allow nowalltime -- <why>)",
			pass.Pkg.BasePath(), path)
	}
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
