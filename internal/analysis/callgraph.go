package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The call graph is the interprocedural backbone of the suite: one node
// per declared function or method of every typed package, with edges
// for every call the type checker can resolve. Dispatch is handled
// conservatively:
//
//   - Static calls (package functions, concrete methods) produce one
//     edge to the callee.
//   - Interface method calls produce one edge to every declared
//     method in the program whose receiver type implements the
//     interface (module-local implementations only — the stub stdlib
//     has no method sets to dispatch into).
//   - Function and method values (a selector or identifier naming a
//     function outside call position) produce a Capture edge at the
//     point of capture: the value may be invoked later, so
//     order-sensitive properties (sink reachability) flow through it,
//     while control-flow properties (blocking) do not — capturing a
//     function does not run it.
//   - Calls spawned on a fresh goroutine (`go f()`, or any call inside
//     a go statement's function literal) carry Spawned: they never
//     block the spawning goroutine, but everything else about them
//     still happens.
//   - Function literals are attributed to the declaring function. A
//     literal that is not invoked where it is written (assigned,
//     returned, registered as a callback) contributes Capture-grade
//     edges only.
//
// Per-function summaries (summary.go) are computed over these edges to
// a fixed point; analyzers consume them through Program.CallGraph().

// CallEdge is one resolved call (or capture) from a function's body.
type CallEdge struct {
	Callee *types.Func
	Pos    token.Pos
	// Spawned marks calls performed on a freshly spawned goroutine.
	Spawned bool
	// Capture marks function/method values taken but not called here,
	// and calls inside non-invoked function literals.
	Capture bool
}

// FuncNode is one declared function or method.
type FuncNode struct {
	Obj   *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	File  *ast.File
	Edges []CallEdge

	summary *Summary
}

// CallGraph indexes every declared function of the typed packages.
type CallGraph struct {
	prog  *Program
	nodes map[*types.Func]*FuncNode
	// dispatch caches interface-method -> implementations.
	dispatch map[*types.Func][]*types.Func
}

// CallGraph builds (once, cached) the module call graph with
// fixed-point summaries.
func (prog *Program) CallGraph() *CallGraph {
	if prog.cg == nil {
		prog.cg = buildCallGraph(prog)
		prog.cg.summarize()
	}
	return prog.cg
}

// Funcs returns every declared function in deterministic order.
func (cg *CallGraph) Funcs() []*FuncNode {
	out := make([]*FuncNode, 0, len(cg.nodes))
	for _, n := range cg.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj.Pos() < out[j].Obj.Pos() })
	return out
}

// ResolveCall returns the declared or interface *types.Func a call
// expression invokes, or nil when the callee is dynamic (a function
// value) or unresolved (stub stdlib).
func (cg *CallGraph) ResolveCall(pkg *Package, call *ast.CallExpr) *types.Func {
	if pkg.Info == nil {
		return nil
	}
	return calleeOf(pkg.Info, call)
}

// CalleesAt returns the declared functions a call expression may
// invoke: the static callee, or — for an interface method call — every
// module-local implementation. Nil when the callee is unresolved or has
// no body in the program.
func (cg *CallGraph) CalleesAt(pkg *Package, call *ast.CallExpr) []*FuncNode {
	fn := cg.ResolveCall(pkg, call)
	if fn == nil {
		return nil
	}
	if isInterfaceMethod(fn) {
		var out []*FuncNode
		for _, impl := range cg.implementations(fn) {
			if n := cg.nodes[impl]; n != nil {
				out = append(out, n)
			}
		}
		return out
	}
	if n := cg.nodes[fn]; n != nil {
		return []*FuncNode{n}
	}
	return nil
}

// FuncName renders a compact human name: "core.applyBatch",
// "broadcast.Broadcaster.Send".
func (cg *CallGraph) FuncName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = LastSegment(fn.Pkg().Path()) + "."
	}
	if recv := recvNamed(fn); recv != "" {
		return pkg + recv + "." + fn.Name()
	}
	return pkg + fn.Name()
}

// recvNamed returns the bare receiver type name of a method, or "".
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return "interface"
	}
	return ""
}

func buildCallGraph(prog *Program) *CallGraph {
	cg := &CallGraph{
		prog:     prog,
		nodes:    make(map[*types.Func]*FuncNode),
		dispatch: make(map[*types.Func][]*types.Func),
	}
	// Index every declared function first so capture/dispatch edges can
	// target functions declared later.
	for _, pkg := range prog.Pkgs {
		if !pkg.Typed() {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || obj == nil {
					continue
				}
				cg.nodes[obj] = &FuncNode{Obj: obj, Decl: fd, Pkg: pkg, File: f}
			}
		}
	}
	for _, n := range cg.Funcs() {
		b := &edgeScan{cg: cg, node: n, info: n.Pkg.Info}
		b.stmts(n.Decl.Body.List, edgeCtx{})
		sort.Slice(n.Edges, func(i, j int) bool { return n.Edges[i].Pos < n.Edges[j].Pos })
	}
	return cg
}

// edgeCtx tracks how the code being scanned executes relative to its
// declaring function.
type edgeCtx struct {
	spawned bool // inside a go statement
	capture bool // inside a non-invoked function literal
}

type edgeScan struct {
	cg   *CallGraph
	node *FuncNode
	info *types.Info
}

func (b *edgeScan) stmts(list []ast.Stmt, ctx edgeCtx) {
	for _, s := range list {
		b.stmt(s, ctx)
	}
}

func (b *edgeScan) stmt(s ast.Stmt, ctx edgeCtx) {
	if s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.GoStmt:
		sp := ctx
		sp.spawned = true
		b.call(s.Call, sp)
	case *ast.DeferStmt:
		// Deferred calls run on the same goroutine at return.
		b.call(s.Call, ctx)
	case *ast.ExprStmt:
		b.expr(s.X, ctx)
	case *ast.SendStmt:
		b.expr(s.Chan, ctx)
		b.expr(s.Value, ctx)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			b.expr(e, ctx)
		}
		for _, e := range s.Lhs {
			b.expr(e, ctx)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			b.expr(e, ctx)
		}
	case *ast.IncDecStmt:
		b.expr(s.X, ctx)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						b.expr(e, ctx)
					}
				}
			}
		}
	case *ast.BlockStmt:
		b.stmts(s.List, ctx)
	case *ast.LabeledStmt:
		b.stmt(s.Stmt, ctx)
	case *ast.IfStmt:
		b.stmt(s.Init, ctx)
		b.expr(s.Cond, ctx)
		b.stmts(s.Body.List, ctx)
		b.stmt(s.Else, ctx)
	case *ast.ForStmt:
		b.stmt(s.Init, ctx)
		b.expr(s.Cond, ctx)
		b.stmt(s.Post, ctx)
		b.stmts(s.Body.List, ctx)
	case *ast.RangeStmt:
		b.expr(s.X, ctx)
		b.stmts(s.Body.List, ctx)
	case *ast.SwitchStmt:
		b.stmt(s.Init, ctx)
		b.expr(s.Tag, ctx)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				b.stmts(cc.Body, ctx)
			}
		}
	case *ast.TypeSwitchStmt:
		b.stmt(s.Init, ctx)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				b.stmts(cc.Body, ctx)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				b.stmt(cc.Comm, ctx)
				b.stmts(cc.Body, ctx)
			}
		}
	}
}

// expr scans an expression for calls and captures.
func (b *edgeScan) expr(e ast.Expr, ctx edgeCtx) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		b.call(e, ctx)
	case *ast.FuncLit:
		// A literal in expression position is not invoked here: its
		// body contributes capture-grade edges only.
		cap := ctx
		cap.capture = true
		b.stmts(e.Body.List, cap)
	case *ast.SelectorExpr:
		b.capture(e.Sel, e.Pos(), ctx)
		b.expr(e.X, ctx)
	case *ast.Ident:
		b.capture(e, e.Pos(), ctx)
	case *ast.ParenExpr:
		b.expr(e.X, ctx)
	case *ast.UnaryExpr:
		b.expr(e.X, ctx)
	case *ast.BinaryExpr:
		b.expr(e.X, ctx)
		b.expr(e.Y, ctx)
	case *ast.StarExpr:
		b.expr(e.X, ctx)
	case *ast.IndexExpr:
		b.expr(e.X, ctx)
		b.expr(e.Index, ctx)
	case *ast.IndexListExpr:
		b.expr(e.X, ctx)
		for _, i := range e.Indices {
			b.expr(i, ctx)
		}
	case *ast.SliceExpr:
		b.expr(e.X, ctx)
		b.expr(e.Low, ctx)
		b.expr(e.High, ctx)
		b.expr(e.Max, ctx)
	case *ast.TypeAssertExpr:
		b.expr(e.X, ctx)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			b.expr(el, ctx)
		}
	case *ast.KeyValueExpr:
		b.expr(e.Key, ctx)
		b.expr(e.Value, ctx)
	}
}

// call records edges for one call expression.
func (b *edgeScan) call(call *ast.CallExpr, ctx edgeCtx) {
	if fl, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately invoked literal: the body runs here.
		b.stmts(fl.Body.List, ctx)
	} else if callee := calleeOf(b.info, call); callee != nil {
		b.addEdges(callee, call.Pos(), ctx)
		// Scan the receiver expression of method calls for nested
		// calls/captures; the selector itself was consumed as callee.
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			b.expr(sel.X, ctx)
		}
	} else {
		// Unresolved callee (stub stdlib, or a function-value call):
		// still scan the callee expression for captures and nested
		// calls.
		b.expr(call.Fun, ctx)
	}
	for _, a := range call.Args {
		b.expr(a, ctx)
	}
}

// capture records a Capture edge when an identifier in value position
// names a declared function or method.
func (b *edgeScan) capture(id *ast.Ident, pos token.Pos, ctx edgeCtx) {
	fn, ok := b.info.Uses[id].(*types.Func)
	if !ok || fn == nil {
		return
	}
	// Only functions that exist in the program (or dispatch into it)
	// matter.
	c := ctx
	c.capture = true
	b.addEdges(fn, pos, c)
}

// addEdges appends the edge(s) for one resolved callee, fanning
// interface methods out to their module-local implementations.
func (b *edgeScan) addEdges(fn *types.Func, pos token.Pos, ctx edgeCtx) {
	if isInterfaceMethod(fn) {
		for _, impl := range b.cg.implementations(fn) {
			b.node.Edges = append(b.node.Edges, CallEdge{
				Callee: impl, Pos: pos,
				Spawned: ctx.spawned, Capture: ctx.capture,
			})
		}
		return
	}
	b.node.Edges = append(b.node.Edges, CallEdge{
		Callee: fn, Pos: pos,
		Spawned: ctx.spawned, Capture: ctx.capture,
	})
}

// calleeOf resolves a call expression's callee to a *types.Func via the
// checker's Uses map. Conversions and builtin calls return nil.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// implementations returns (cached) every declared method in the program
// that could satisfy an interface method call.
func (cg *CallGraph) implementations(ifaceMethod *types.Func) []*types.Func {
	if impls, ok := cg.dispatch[ifaceMethod]; ok {
		return impls
	}
	sig, _ := ifaceMethod.Type().(*types.Signature)
	var iface *types.Interface
	if sig != nil && sig.Recv() != nil {
		iface, _ = sig.Recv().Type().Underlying().(*types.Interface)
	}
	var impls []*types.Func
	for _, n := range cg.Funcs() {
		fn := n.Obj
		fs, ok := fn.Type().(*types.Signature)
		if !ok || fs.Recv() == nil || fn.Name() != ifaceMethod.Name() {
			continue
		}
		recv := fs.Recv().Type()
		if types.IsInterface(recv) {
			continue
		}
		if iface == nil || types.Implements(recv, iface) || implementsPtr(recv, iface) {
			impls = append(impls, fn)
		}
	}
	cg.dispatch[ifaceMethod] = impls
	return impls
}

// implementsPtr checks *T against the interface when T was given.
func implementsPtr(t types.Type, iface *types.Interface) bool {
	if _, ok := t.(*types.Pointer); ok {
		return false
	}
	return types.Implements(types.NewPointer(t), iface)
}

// pkgSegment reports whether an import path contains the given path
// segment ("fragdb/internal/netsim" has segment "netsim"; fixture
// packages use their bare directory name).
func pkgSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}
