// Command halint runs the fragdb static-analysis suite: machine checks
// for the determinism, locking, and wire invariants the engine's
// correctness arguments lean on (see DESIGN.md, "Determinism & locking
// contract").
//
//	go run ./cmd/halint ./...
//	go run ./cmd/halint -only nowalltime ./internal/core
//
// The whole module is always loaded and analyzed; package patterns
// only narrow which findings print. Findings print as
// "file:line:col: [analyzer] message"; the exit status is 1 when there
// are findings, 2 on driver errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fragdb/internal/analysis"
	"fragdb/internal/analysis/registry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("halint", flag.ExitOnError)
	only := fs.String("only", "", "run only the named analyzer (comma-separated list)")
	list := fs.Bool("list", false, "list analyzers and exit")
	asGitHub := fs.Bool("github", false, "emit findings as GitHub Actions ::error annotations (in addition to the plain lines)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: halint [-only name,...] [-github] [packages]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range registry.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := registry.All()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := registry.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "halint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "halint:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "halint:", err)
		return 2
	}
	prog, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "halint:", err)
		return 2
	}

	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		ds, err := analysis.Run(prog, a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "halint:", err)
			return 2
		}
		diags = append(diags, ds...)
	}
	if *only == "" {
		// Directive lint plus the stale-allow audit — the latter is only
		// sound after the full suite ran, so -only skips it.
		diags = append(diags, analysis.DirectiveDiagnostics(prog)...)
		diags = append(diags, analysis.StaleAllowDiagnostics(prog)...)
	}
	analysis.SortDiagnostics(prog.Fset, diags)
	diags = filterPatterns(prog, diags, fs.Args(), wd)

	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		rel := relPath(wd, pos.Filename)
		fmt.Printf("%s:%d:%d: [%s] %s\n", rel, pos.Line, pos.Column, d.Analyzer, d.Message)
		if *asGitHub {
			// GitHub Actions workflow-command annotation: lands the
			// finding on the PR diff at file/line. The message text must
			// be %-escaped per the workflow-command spec.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=halint %s::%s\n",
				rel, pos.Line, pos.Column, d.Analyzer, githubEscape(d.Message))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "halint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// relPath renders a file path relative to the working directory when it
// is inside it.
func relPath(wd, file string) string {
	rel, err := filepath.Rel(wd, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return file
	}
	return rel
}

// githubEscape applies the workflow-command data escaping rules.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// filterPatterns narrows findings to the requested package directories.
// The whole module is always analyzed (wireencodable needs the full
// program); "./..." and no arguments mean everything.
func filterPatterns(prog *analysis.Program, diags []analysis.Diagnostic, patterns []string, wd string) []analysis.Diagnostic {
	var roots []string
	for _, p := range patterns {
		if p == "./..." || p == "all" {
			return diags
		}
		dir := strings.TrimSuffix(p, "/...")
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(wd, dir)
		}
		roots = append(roots, filepath.Clean(dir))
	}
	if len(roots) == 0 {
		return diags
	}
	out := diags[:0]
	for _, d := range diags {
		file := prog.Fset.Position(d.Pos).Filename
		for _, root := range roots {
			if file == root || strings.HasPrefix(file, root+string(filepath.Separator)) {
				out = append(out, d)
				break
			}
		}
	}
	return out
}
