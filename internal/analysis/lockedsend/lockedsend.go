// Package lockedsend flags blocking operations performed while a
// sync.Mutex or sync.RWMutex is held: channel sends and receives,
// selects without a default, sync WaitGroup/Cond Wait calls, and
// time.Sleep. A goroutine that blocks while holding a lock turns every
// other contender into a convoy — and, as the PR 2 rtnet race showed
// (inflight.Add racing Close's Wait after an early RUnlock), the
// lock/blocking-op interleavings are exactly where the real-time
// transport's bugs live.
//
// Lock tracking is syntactic and per-function; blocking detection is
// interprocedural: a call under a held lock to any function whose
// call-graph summary says it may block — through helpers, method
// values resolved by go/types, or interface dispatch — is flagged with
// the full call path ("blocks via A → B → channel send"). The
// conventions:
//
//   - x.Lock()/x.RLock() acquires the lock named by the receiver
//     expression; x.Unlock()/x.RUnlock() releases it. `defer
//     x.Unlock()` keeps the lock held to function end, so everything
//     after it is "under the lock".
//   - Functions whose name ends in "Locked", or whose doc comment says
//     the caller holds mu (broadcast's "Caller holds mu." convention),
//     are analyzed as if <recv>.mu were held at entry.
//   - Branch bodies are walked with a copy of the lock state and their
//     effects discarded afterwards — conservative for the common
//     `if cond { mu.Unlock(); return }` early-exit shape.
//   - Function literals are analyzed as fresh functions (a goroutine or
//     timer callback does not inherit the spawner's locks); `go`
//     statements never block the spawning goroutine.
//
// False positives carry `//halint:allow lockedsend -- <why>`.
package lockedsend

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"

	"fragdb/internal/analysis"
)

// Analyzer is the lockedsend checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockedsend",
	Doc:  "forbid blocking operations (channel ops, Wait, Sleep) while holding a mutex",
	Run:  run,
}

// callerHoldsRE matches the doc-comment convention marking helpers that
// run under the caller's mutex.
var callerHoldsRE = regexp.MustCompile(`(?i)caller(s)? (must )?hold(s)? .{0,12}mu`)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		imports := analysis.ImportNames(f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w := &walker{pass: pass, imports: imports}
				w.checkFunc(fd)
			}
		}
	}
	return nil
}

// lockState maps a held lock's rendered receiver expression to the
// position where it was acquired.
type lockState map[string]token.Pos

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

type walker struct {
	pass    *analysis.Pass
	imports map[string]string
}

// checkFunc analyzes one declared function, seeding the entry lock for
// *Locked helpers.
func (w *walker) checkFunc(fd *ast.FuncDecl) {
	held := lockState{}
	if entryHolds(fd) {
		recv := "mu"
		if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
			recv = fd.Recv.List[0].Names[0].Name + ".mu"
		}
		held[recv] = fd.Pos()
	}
	w.walkStmts(fd.Body.List, held)
}

// entryHolds detects the caller-holds-the-lock conventions.
func entryHolds(fd *ast.FuncDecl) bool {
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return true
	}
	return fd.Doc != nil && callerHoldsRE.MatchString(fd.Doc.Text())
}

// walkStmts scans statements in order, mutating held as locks are
// taken and released.
func (w *walker) walkStmts(stmts []ast.Stmt, held lockState) {
	for _, s := range stmts {
		w.walkStmt(s, held)
	}
}

func (w *walker) walkStmt(s ast.Stmt, held lockState) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && w.lockTransition(call, held) {
			return
		}
		w.scanExpr(s.X, held)
	case *ast.SendStmt:
		w.reportHeld(s.Arrow, held, "channel send")
		w.scanExpr(s.Chan, held)
		w.scanExpr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.scanExpr(e, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, held)
		}
	case *ast.IncDecStmt:
		w.scanExpr(s.X, held)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` pins the lock to function end; everything
		// below still runs under it, which is exactly what we check.
		// Other deferred calls run at return and are not scanned under
		// the current state.
		w.scanFuncLits(s.Call, held)
	case *ast.GoStmt:
		// Spawning never blocks; the goroutine body holds no inherited
		// locks.
		w.scanFuncLits(s.Call, held)
	case *ast.BlockStmt:
		w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		w.walkStmts(s.Body.List, held.clone())
		if s.Else != nil {
			w.walkStmt(s.Else, held.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held)
		}
		body := held.clone()
		w.walkStmts(s.Body.List, body)
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		w.walkStmts(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, held.clone())
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
			w.reportHeld(s.Select, held, "select with blocking communication cases")
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.walkStmts(cc.Body, held.clone())
			}
		}
	}
}

// lockTransition handles x.Lock()/x.RLock()/x.Unlock()/x.RUnlock()
// statements, updating held. Reports true when the call was a lock
// operation.
func (w *walker) lockTransition(call *ast.CallExpr, held lockState) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	key, ok := render(sel.X)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		held[key] = call.Pos()
		return true
	case "Unlock", "RUnlock":
		delete(held, key)
		return true
	}
	return false
}

// scanExpr reports blocking operations appearing anywhere in an
// expression: channel receives and blocking calls. Function literals
// are analyzed as fresh functions.
func (w *walker) scanExpr(e ast.Expr, held lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walkStmts(n.Body.List, lockState{})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.reportHeld(n.Pos(), held, "channel receive")
			}
		case *ast.CallExpr:
			if kind, ok := w.blockingCall(n); ok {
				w.reportHeld(n.Pos(), held, kind)
			} else if len(held) > 0 {
				w.transitiveCall(n, held)
			}
		}
		return true
	})
}

// transitiveCall consults the call-graph summaries: a call (static or
// interface-dispatched) to a function that may block anywhere down its
// call chain is as bad as blocking here. Callees analyzed as
// caller-holds-the-lock helpers (*Locked, "Caller holds mu.") are
// skipped — their bodies self-report under the entry lock, so the call
// site would only duplicate the finding.
func (w *walker) transitiveCall(call *ast.CallExpr, held lockState) {
	pkg := w.pass.Pkg
	if !pkg.Typed() {
		return
	}
	cg := w.pass.Prog.CallGraph()
	for _, callee := range cg.CalleesAt(pkg, call) {
		if entryHolds(callee.Decl) {
			continue
		}
		sum := cg.Summary(callee)
		if sum == nil || !sum.MayBlock {
			continue
		}
		w.reportHeldPath(call.Pos(), held,
			"call to "+cg.FuncName(callee.Obj), cg.BlockPath(callee))
		return // one witness per call site, even under interface dispatch
	}
}

// scanFuncLits analyzes only the function literals of a call (used for
// defer/go, whose call itself does not run under the current state).
func (w *walker) scanFuncLits(call *ast.CallExpr, held lockState) {
	_ = held
	ast.Inspect(call, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			w.walkStmts(fl.Body.List, lockState{})
			return false
		}
		return true
	})
}

// blockingCall classifies calls that block the current goroutine.
func (w *walker) blockingCall(call *ast.CallExpr) (string, bool) {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := fun.X.(*ast.Ident); ok {
		if path, imported := w.imports[id.Name]; imported {
			if path == "time" && fun.Sel.Name == "Sleep" {
				return "time.Sleep", true
			}
			return "", false
		}
	}
	if fun.Sel.Name == "Wait" && len(call.Args) == 0 {
		return "Wait call", true
	}
	return "", false
}

// reportHeld emits one finding per held lock.
func (w *walker) reportHeld(pos token.Pos, held lockState, what string) {
	for lock, at := range held {
		w.pass.Reportf(pos,
			"%s while holding %s (locked at line %d): release the lock before blocking, or justify with //halint:allow lockedsend -- <why>",
			what, lock, w.pass.Fset().Position(at).Line)
	}
}

// reportHeldPath emits one finding per held lock with the transitive
// call path to the blocking operation.
func (w *walker) reportHeldPath(pos token.Pos, held lockState, what, path string) {
	for lock, at := range held {
		w.pass.Reportf(pos,
			"%s may block while holding %s (locked at line %d): blocks via %s; release the lock before calling, or justify with //halint:allow lockedsend -- <why>",
			what, lock, w.pass.Fset().Position(at).Line, path)
	}
}

// render prints a simple receiver expression (idents, field
// selections, and simple index selections such as m.shards[i].mu);
// anything more dynamic is not tracked.
func render(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := render(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.IndexExpr:
		base, ok := render(e.X)
		if !ok {
			return "", false
		}
		idx, ok := render(e.Index)
		if !ok {
			return "", false
		}
		return base + "[" + idx + "]", true
	case *ast.BasicLit:
		return e.Value, true
	case *ast.ParenExpr:
		return render(e.X)
	}
	return "", false
}
