// Package mapdeterminism flags `for range` over maps whose loop body
// reaches a decision sink. Go randomizes map iteration order on
// purpose; a loop that merely aggregates (sums, set-builds, collects
// keys for a later sort) is immune, but the moment the body reaches an
// order-sensitive sink — a wire or channel send, a trace emit, an
// encode that produces user-visible bytes, or a move-protocol call —
// the iteration order leaks into replicas, repro logs, or the wire,
// and byte-identical chaos replay is gone in a way only an expensive
// multi-seed sweep would notice.
//
// The check runs in the determinism-critical packages (core,
// placement, chaoskit, broadcast, agentmove, obs — the engine,
// decision, and observation layers whose outputs must be functions of
// (seed, plan) or of the scraped inputs alone). One sink counts in
// every package: a transaction operation ((*core.Tx).Read, ReadInt,
// Write, Think). A program reruns against the log of its answered
// operations, and one that issues them in map order diverges from it
// and pays for each operation again. Sink reachability is
// interprocedural: the loop body's calls are resolved through the
// module call graph, so a send hidden two helpers down is still found,
// and reported with its call path.
//
// The canonical fix is to iterate sorted keys:
//
//	keys := make([]K, 0, len(m))
//	for k := range m { keys = append(keys, k) }   // collect: no sink, clean
//	sort.Slice(keys, ...)
//	for _, k := range keys { send(m[k]) }          // slice range: not a map
//
// Sites where the order provably cannot matter (the body selects a
// single key, the sink is idempotent) carry
// `//halint:allow mapdeterminism -- <why>`.
package mapdeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"fragdb/internal/analysis"
)

// Analyzer is the mapdeterminism checker.
var Analyzer = &analysis.Analyzer{
	Name:       "mapdeterminism",
	Doc:        "forbid map-iteration order from reaching decision sinks (sends, trace, encode, moves) in determinism-critical packages",
	NeedsTypes: true,
	Run:        run,
}

// criticalSegments are the path segments naming determinism-critical
// packages: the engine and decision layers (core, placement, chaoskit,
// broadcast, agentmove) plus the observatory (obs), whose snapshots
// must be stable functions of their inputs.
var criticalSegments = map[string]bool{
	"core": true, "placement": true, "chaoskit": true,
	"broadcast": true, "agentmove": true, "obs": true,
}

// Critical reports whether an import path is determinism-critical for
// map iteration. Bare fixture paths follow the same last-segment rule.
func Critical(path string) bool {
	path = strings.TrimSuffix(path, analysis.TestSuffix)
	for _, s := range strings.Split(path, "/") {
		if criticalSegments[s] {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !pass.Pkg.Typed() {
		return nil
	}
	critical := Critical(pass.Pkg.Path)
	cg := pass.Prog.CallGraph()
	for _, f := range pass.Pkg.Files {
		imports := analysis.ImportNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !isMapRange(pass, rs) {
				return true
			}
			if sinkDesc, ok := bodyReachesSink(pass, cg, imports, rs.Body, critical); ok {
				pass.Reportf(rs.For,
					"map iteration order reaches a decision sink: %s; iterate a sorted key slice instead, or justify with //halint:allow mapdeterminism -- <why>",
					sinkDesc)
			}
			return true
		})
	}
	return nil
}

// isMapRange reports whether the range statement iterates a map.
func isMapRange(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// bodyReachesSink walks the loop body (including nested function
// literals — a callback built per-key carries the order with it)
// looking for a direct sink or a call whose summary reaches one.
// Outside the critical packages only transaction operations count.
func bodyReachesSink(pass *analysis.Pass, cg *analysis.CallGraph, imports map[string]string, body *ast.BlockStmt, critical bool) (string, bool) {
	var desc string
	found := false
	counts := func(k analysis.Sink) bool { return critical || k == analysis.SinkTxOp }
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if critical {
				desc, found = "channel send in the loop body", true
				return false
			}
		case *ast.CallExpr:
			// Direct sink at this call?
			if k, what, ok := cg.CallSink(pass.Pkg, imports, n); ok && counts(k) {
				desc = what + " (" + k.String() + ") in the loop body"
				found = true
				return false
			}
			// Transitive: any resolved callee whose summary reaches a
			// sink.
			for _, callee := range cg.CalleesAt(pass.Pkg, n) {
				sum := cg.Summary(callee)
				if sum == nil {
					continue
				}
				for k := analysis.SinkSend; int(k) < analysis.NumSinks; k++ {
					if sum.HasSink(k) && counts(k) {
						desc = "the loop body reaches a " + k.String() + " via " + cg.SinkPath(callee, k)
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return desc, found
}
