package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Per-function summaries, computed over the call graph to a fixed
// point. Each bit answers one whole-program question an analyzer
// needs:
//
//	MayBlock   — can calling this function block the calling goroutine
//	             (channel ops, select without default, Wait, time.Sleep)
//	             before it returns? Spawned calls and captured function
//	             values do not count: starting a goroutine or taking a
//	             method value never blocks. Read by lockedsend.
//	Sinks      — which decision sinks does the function reach: a wire or
//	             channel send, a trace emit, a codec/output encode, or a
//	             move-protocol (controller decision) call? Capture edges
//	             count: registering an order-sensitive callback leaks
//	             ordering just as surely as calling it. Read by
//	             mapdeterminism.
//
// Every positive bit carries a witness chain for diagnostics: the
// direct operation's position and kind, or the callee through which
// the property was inherited. PathTo renders it as
// "a → b → channel send (file.go:12)".

// Sink enumerates the decision-sink taxonomy (see DESIGN.md §8).
type Sink int

const (
	// SinkSend is a wire or channel send: netsim/rtnet/broadcast Send
	// methods, broadcast's queueSend (its outbox posts in queue order),
	// or a raw channel send statement.
	SinkSend Sink = iota
	// SinkTrace is a flight-recorder emit (trace.Recorder.Emit).
	SinkTrace
	// SinkEncode is a byte- or text-producing encode: internal/wire
	// Encode, encoding/json Marshal*, or fmt printing to an output.
	SinkEncode
	// SinkDecision is a move-protocol call (internal/agentmove): the
	// actuation of a placement decision.
	SinkDecision
	// SinkTxOp is an operation of a transaction program
	// ((*core.Tx).Read, ReadInt, Write, Think). A program reruns from a
	// log of its answered operations, so it must issue them in the same
	// order every run; unlike the other sinks it counts in every
	// package, since programs live outside the engine.
	SinkTxOp
	NumSinks = 5
)

// String names a sink for diagnostics.
func (s Sink) String() string {
	switch s {
	case SinkSend:
		return "wire/channel send"
	case SinkTrace:
		return "trace emit"
	case SinkEncode:
		return "encode/output"
	case SinkDecision:
		return "move decision"
	case SinkTxOp:
		return "transaction operation"
	}
	return "sink"
}

// witness records how a summary bit became true: a direct operation
// (via == nil) or inheritance from a callee.
type witness struct {
	pos  token.Pos
	desc string    // direct operation ("channel send", "time.Now", ...)
	via  *FuncNode // callee the property was inherited from, or nil
}

// Summary is one function's fixed-point facts.
type Summary struct {
	MayBlock bool
	Sinks    [NumSinks]bool

	blockW witness
	sinkW  [NumSinks]witness
}

// HasSink reports whether the function reaches the given sink.
func (s *Summary) HasSink(k Sink) bool { return s != nil && s.Sinks[k] }

// Summary returns the fixed-point summary for a declared function, or
// nil for functions outside the program.
func (cg *CallGraph) Summary(fn *FuncNode) *Summary {
	if fn == nil {
		return nil
	}
	return fn.summary
}

// directOps extracts one function's direct facts into its summary.
func (cg *CallGraph) directOps(n *FuncNode) {
	s := &Summary{}
	n.summary = s
	d := &directScan{cg: cg, node: n, sum: s, imports: ImportNames(n.File)}
	d.stmts(n.Decl.Body.List, edgeCtx{})
}

// directScan walks one body recording direct operations, mirroring
// edgeScan's goroutine/capture context tracking.
type directScan struct {
	cg      *CallGraph
	node    *FuncNode
	sum     *Summary
	imports map[string]string
}

func (d *directScan) stmts(list []ast.Stmt, ctx edgeCtx) {
	for _, s := range list {
		d.stmt(s, ctx)
	}
}

func (d *directScan) stmt(s ast.Stmt, ctx edgeCtx) {
	if s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.GoStmt:
		sp := ctx
		sp.spawned = true
		d.callAndArgs(s.Call, sp)
	case *ast.DeferStmt:
		d.callAndArgs(s.Call, ctx)
	case *ast.ExprStmt:
		d.expr(s.X, ctx)
	case *ast.SendStmt:
		d.block(s.Arrow, "channel send", ctx)
		d.sink(SinkSend, s.Arrow, "channel send")
		d.expr(s.Chan, ctx)
		d.expr(s.Value, ctx)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			d.expr(e, ctx)
		}
		for _, e := range s.Lhs {
			d.expr(e, ctx)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			d.expr(e, ctx)
		}
	case *ast.IncDecStmt:
		d.expr(s.X, ctx)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						d.expr(e, ctx)
					}
				}
			}
		}
	case *ast.BlockStmt:
		d.stmts(s.List, ctx)
	case *ast.LabeledStmt:
		d.stmt(s.Stmt, ctx)
	case *ast.IfStmt:
		d.stmt(s.Init, ctx)
		d.expr(s.Cond, ctx)
		d.stmts(s.Body.List, ctx)
		d.stmt(s.Else, ctx)
	case *ast.ForStmt:
		d.stmt(s.Init, ctx)
		d.expr(s.Cond, ctx)
		d.stmt(s.Post, ctx)
		d.stmts(s.Body.List, ctx)
	case *ast.RangeStmt:
		d.expr(s.X, ctx)
		d.stmts(s.Body.List, ctx)
	case *ast.SwitchStmt:
		d.stmt(s.Init, ctx)
		d.expr(s.Tag, ctx)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				d.stmts(cc.Body, ctx)
			}
		}
	case *ast.TypeSwitchStmt:
		d.stmt(s.Init, ctx)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				d.stmts(cc.Body, ctx)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			d.block(s.Select, "select with blocking communication cases", ctx)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				d.stmt(cc.Comm, ctx)
				d.stmts(cc.Body, ctx)
			}
		}
	}
}

func (d *directScan) expr(e ast.Expr, ctx edgeCtx) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		d.callAndArgs(e, ctx)
	case *ast.FuncLit:
		cap := ctx
		cap.capture = true
		d.stmts(e.Body.List, cap)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			d.block(e.Pos(), "channel receive", ctx)
		}
		d.expr(e.X, ctx)
	case *ast.SelectorExpr:
		d.expr(e.X, ctx)
	case *ast.ParenExpr:
		d.expr(e.X, ctx)
	case *ast.BinaryExpr:
		d.expr(e.X, ctx)
		d.expr(e.Y, ctx)
	case *ast.StarExpr:
		d.expr(e.X, ctx)
	case *ast.IndexExpr:
		d.expr(e.X, ctx)
		d.expr(e.Index, ctx)
	case *ast.IndexListExpr:
		d.expr(e.X, ctx)
		for _, i := range e.Indices {
			d.expr(i, ctx)
		}
	case *ast.SliceExpr:
		d.expr(e.X, ctx)
		d.expr(e.Low, ctx)
		d.expr(e.High, ctx)
		d.expr(e.Max, ctx)
	case *ast.TypeAssertExpr:
		d.expr(e.X, ctx)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			d.expr(el, ctx)
		}
	case *ast.KeyValueExpr:
		d.expr(e.Key, ctx)
		d.expr(e.Value, ctx)
	}
}

// callAndArgs classifies one call expression's direct effects and
// recurses into receiver/arguments.
func (d *directScan) callAndArgs(call *ast.CallExpr, ctx edgeCtx) {
	if fl, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		d.stmts(fl.Body.List, ctx) // immediately invoked
	} else {
		d.classifyCall(call, ctx)
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			d.expr(sel.X, ctx)
		}
	}
	for _, a := range call.Args {
		d.expr(a, ctx)
	}
}

// classifyCall records the direct blocking and sink facts of one call.
func (d *directScan) classifyCall(call *ast.CallExpr, ctx edgeCtx) {
	// Sink classification, shared with mapdeterminism's direct check.
	if k, desc, ok := classifySink(d.cg, calleeOf(d.node.Pkg.Info, call), d.imports, call); ok {
		d.sink(k, call.Pos(), desc)
	}

	// Syntactic classification: stub stdlib callees never resolve, so
	// time.Sleep is matched through the file's import table, and any
	// other package-qualified call is not a direct blocking op.
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if path, imported := d.imports[id.Name]; imported {
			if path == "time" && sel.Sel.Name == "Sleep" {
				d.block(call.Pos(), "time.Sleep", ctx)
			}
			return
		}
	}
	// Unqualified method calls: the Wait-call heuristic (WaitGroup,
	// Cond, Inflight counters).
	if sel.Sel.Name == "Wait" && len(call.Args) == 0 {
		d.block(call.Pos(), "Wait call", ctx)
	}
}

// classifySink decides whether one call expression is a direct
// decision sink. fn may be nil (unresolved callee); stub-stdlib
// emitters (fmt printing, json marshalling) are matched syntactically
// through the file's import table.
func classifySink(cg *CallGraph, fn *types.Func, imports map[string]string, call *ast.CallExpr) (Sink, string, bool) {
	if fn != nil && fn.Pkg() != nil {
		path := fn.Pkg().Path()
		name := fn.Name()
		switch {
		case name == "Send" && (pkgSegment(path, "netsim") || pkgSegment(path, "rtnet") || pkgSegment(path, "broadcast")):
			return SinkSend, cg.FuncName(fn), true
		case name == "queueSend" && pkgSegment(path, "broadcast"):
			// The outbox is posted in queue order once the lock is
			// released, so queue order is wire order.
			return SinkSend, cg.FuncName(fn), true
		case name == "Emit" && pkgSegment(path, "trace"):
			return SinkTrace, cg.FuncName(fn), true
		case name == "Encode" && pkgSegment(path, "wire"):
			return SinkEncode, cg.FuncName(fn), true
		case pkgSegment(path, "agentmove") && ast.IsExported(name):
			return SinkDecision, cg.FuncName(fn), true
		case txOps[name] && pkgSegment(path, "core") && recvNamed(fn) == "Tx":
			return SinkTxOp, cg.FuncName(fn), true
		}
		return 0, "", false
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		if id, ok := sel.X.(*ast.Ident); ok {
			if path, imported := imports[id.Name]; imported {
				switch {
				case path == "fmt" && strings.HasPrefix(name, "Print"):
					return SinkEncode, "fmt." + name, true
				case path == "fmt" && strings.HasPrefix(name, "Fprint") && processStream(imports, call):
					return SinkEncode, "fmt." + name, true
				case path == "encoding/json" && strings.HasPrefix(name, "Marshal"):
					return SinkEncode, "json." + name, true
				}
			}
		}
	}
	return 0, "", false
}

// txOps names the methods of core.Tx that are program operations.
var txOps = map[string]bool{"Read": true, "ReadInt": true, "Write": true, "Think": true}

// processStream reports whether an Fprint destination is recognizably a
// process output stream (os.Stdout / os.Stderr). With the stub stdlib
// there is no type information to tell a *strings.Builder from an
// *os.File, so Fprint counts as an output sink only when the
// destination names a stream syntactically; string-building Fprints
// (the dominant use in this module) stay clean — if the built string
// later reaches the wire or the terminal, that write is its own sink.
func processStream(imports map[string]string, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	sel, ok := unparen(call.Args[0]).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return imports[id.Name] == "os" && (sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr")
}

// CallSink classifies one call expression as a direct decision sink
// (exported for mapdeterminism's loop-body walk). imports is the
// enclosing file's ImportNames table.
func (cg *CallGraph) CallSink(pkg *Package, imports map[string]string, call *ast.CallExpr) (Sink, string, bool) {
	return classifySink(cg, cg.ResolveCall(pkg, call), imports, call)
}

// block records a direct blocking op; spawned goroutines and captured
// literals never block the declaring function's callers.
func (d *directScan) block(pos token.Pos, desc string, ctx edgeCtx) {
	if ctx.spawned || ctx.capture {
		return
	}
	if !d.sum.MayBlock {
		d.sum.MayBlock = true
		d.sum.blockW = witness{pos: pos, desc: desc}
	}
}

// sink records a direct sink op; all contexts count (ordering leaks
// through spawned goroutines and registered callbacks alike).
func (d *directScan) sink(k Sink, pos token.Pos, desc string) {
	if !d.sum.Sinks[k] {
		d.sum.Sinks[k] = true
		d.sum.sinkW[k] = witness{pos: pos, desc: desc}
	}
}

// summarize computes every function's direct facts, then propagates
// them over call edges to a fixed point. Iteration is over the
// position-sorted function list with position-sorted edges, so witness
// chains are deterministic.
func (cg *CallGraph) summarize() {
	funcs := cg.Funcs()
	for _, n := range funcs {
		cg.directOps(n)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range funcs {
			s := n.summary
			for _, e := range n.Edges {
				cn := cg.nodes[e.Callee]
				if cn == nil {
					continue
				}
				cs := cn.summary
				if !s.MayBlock && cs.MayBlock && !e.Spawned && !e.Capture {
					s.MayBlock = true
					s.blockW = witness{pos: e.Pos, via: cn}
					changed = true
				}
				for k := 0; k < NumSinks; k++ {
					if !s.Sinks[k] && cs.Sinks[k] {
						s.Sinks[k] = true
						s.sinkW[k] = witness{pos: e.Pos, via: cn}
						changed = true
					}
				}
			}
		}
	}
}

// BlockPath renders the call chain behind a function's MayBlock bit:
// "core.flush → broadcast.Broadcaster.Send → channel send (broadcast.go:471)".
func (cg *CallGraph) BlockPath(n *FuncNode) string {
	return cg.path(n, func(s *Summary) witness { return s.blockW })
}

// SinkPath renders the chain behind one sink bit.
func (cg *CallGraph) SinkPath(n *FuncNode, k Sink) string {
	return cg.path(n, func(s *Summary) witness { return s.sinkW[k] })
}

func (cg *CallGraph) path(n *FuncNode, pick func(*Summary) witness) string {
	var parts []string
	seen := map[*FuncNode]bool{}
	for n != nil && !seen[n] {
		seen[n] = true
		parts = append(parts, cg.FuncName(n.Obj))
		if n.summary == nil {
			break
		}
		w := pick(n.summary)
		if w.via == nil {
			if w.desc != "" {
				parts = append(parts, fmt.Sprintf("%s (%s)", w.desc, cg.shortPos(w.pos)))
			}
			break
		}
		n = w.via
	}
	return strings.Join(parts, " → ")
}

// shortPos renders "file.go:123".
func (cg *CallGraph) shortPos(pos token.Pos) string {
	p := cg.prog.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
