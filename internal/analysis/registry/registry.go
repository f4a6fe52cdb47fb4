// Package registry enumerates the halint analyzers and runs the whole
// suite, shared by cmd/halint and the suite-level tests. It lives
// outside package analysis so the framework does not import its own
// analyzers.
package registry

import (
	"fragdb/internal/analysis"
	"fragdb/internal/analysis/lockedsend"
	"fragdb/internal/analysis/mapdeterminism"
	"fragdb/internal/analysis/nowalltime"
	"fragdb/internal/analysis/wireencodable"
)

// All returns the halint suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nowalltime.Analyzer,
		lockedsend.Analyzer,
		mapdeterminism.Analyzer,
		wireencodable.Analyzer,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAll executes every analyzer plus the directive lint and the
// stale-allow audit over the program, returning position-sorted
// findings. The stale-allow audit is only sound here, after the whole
// suite has had the chance to use every directive.
func RunAll(prog *analysis.Program) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range All() {
		ds, err := analysis.Run(prog, a)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	diags = append(diags, analysis.DirectiveDiagnostics(prog)...)
	diags = append(diags, analysis.StaleAllowDiagnostics(prog)...)
	analysis.SortDiagnostics(prog.Fset, diags)
	return diags, nil
}
