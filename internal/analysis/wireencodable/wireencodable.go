// Package wireencodable checks that every concrete type flowing into
// the wire path has a codec: a tag in internal/wire's table, or an
// explicit sanction at its type declaration. A payload without one is
// an Encode error, which the TCP transport can only count and drop — at
// which point the broadcaster repairs forever and a direct message is
// simply lost.
//
// The encodable set is computed from the program itself, so the
// analyzer never goes stale: it is the message type of every
// wire.Register call (the parameter type of the size function handed to
// it) in non-test sources. Basic types are always fine: the scalar
// tags cover them.
//
// Checked sites:
//
//   - the argument of a one-argument Send call whose receiver is a
//     broadcast.Broadcaster (pointer or value),
//   - the payload of a three-argument Send call on a netsim.Transport,
//   - the argument of wire.Encode,
//   - values assigned to the payload-carrying composite-literal fields
//     Data.Payload, DataBatch.Payloads (literal elements), and
//     WriteOp.Value.
//
// Interface-typed expressions are skipped (the dynamic type is not
// statically known). A type that is deliberately simulation-internal —
// never serialized because the in-memory netsim passes it by value — is
// sanctioned with `//halint:allow wireencodable -- <why>` on its type
// declaration.
package wireencodable

import (
	"go/ast"
	"go/types"
	"sync"

	"fragdb/internal/analysis"
)

// Analyzer is the wireencodable checker.
var Analyzer = &analysis.Analyzer{
	Name:       "wireencodable",
	Doc:        "broadcast/wire/transport payloads must have a codec registered with internal/wire",
	NeedsTypes: true,
	Run:        run,
}

var (
	setMu   sync.Mutex
	setMemo = map[*analysis.Program]map[string]bool{}
)

// encodableSet computes (once per program) the set of type strings the
// wire layer can encode: the message type of every wire.Register call.
func encodableSet(prog *analysis.Program) map[string]bool {
	setMu.Lock()
	defer setMu.Unlock()
	if set, ok := setMemo[prog]; ok {
		return set
	}
	set := map[string]bool{}
	for _, pkg := range prog.Pkgs {
		if !pkg.Typed() {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if t := registeredType(pkg, call); t != nil {
						set[typeKey(t)] = true
					}
				}
				return true
			})
		}
	}
	setMemo[prog] = set
	return set
}

// registeredType returns T for a call of wire.Register[T](tag, size,
// append, decode), written with or without the package qualifier and
// the type argument, and nil for any other call. T is read off the size
// function's parameter, which is there however the call is written.
func registeredType(pkg *analysis.Package, call *ast.CallExpr) types.Type {
	fun := call.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	}
	var id *ast.Ident
	switch fn := fun.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	}
	if id == nil || id.Name != "Register" || len(call.Args) != 4 {
		return nil
	}
	obj, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok || obj.Pkg() == nil || analysis.LastSegment(obj.Pkg().Path()) != "wire" {
		return nil
	}
	sig, ok := exprType(pkg, call.Args[1]).(*types.Signature)
	if !ok || sig.Params().Len() != 1 {
		return nil
	}
	return sig.Params().At(0).Type()
}

// exprType resolves an expression's type from the package's own Info
// (valid types only).
func exprType(pkg *analysis.Package, e ast.Expr) types.Type {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.Invalid {
		return nil
	}
	return tv.Type
}

// typeKey normalizes a type to its lookup string.
func typeKey(t types.Type) string { return types.TypeString(t, nil) }

func run(pass *analysis.Pass) error {
	set := encodableSet(pass.Prog)
	for _, f := range pass.Pkg.Files {
		imports := analysis.ImportNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, set, imports, n)
			case *ast.CompositeLit:
				checkLit(pass, set, n)
			}
			return true
		})
	}
	return nil
}

// checkCall inspects Broadcaster.Send, Transport.Send and wire.Encode
// arguments.
func checkCall(pass *analysis.Pass, set map[string]bool, imports map[string]string, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch {
	case sel.Sel.Name == "Send" && len(call.Args) == 1:
		if recvIs(pass, sel.X, "broadcast", "Broadcaster") {
			checkPayload(pass, set, call.Args[0], "Broadcaster.Send payload")
		}
	case sel.Sel.Name == "Send" && len(call.Args) == 3:
		if recvIs(pass, sel.X, "netsim", "Transport") {
			checkPayload(pass, set, call.Args[2], "Transport.Send payload")
		}
	case sel.Sel.Name == "Encode" && len(call.Args) == 1:
		if id, ok := sel.X.(*ast.Ident); ok {
			if path, imported := imports[id.Name]; imported && analysis.LastSegment(path) == "wire" {
				checkPayload(pass, set, call.Args[0], "wire.Encode payload")
			}
		}
	}
}

// recvIs reports whether the expression is a (pointer to a) value of
// the named type from a package with the given last path segment.
func recvIs(pass *analysis.Pass, recv ast.Expr, pkg, name string) bool {
	t := pass.TypeOf(recv)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && analysis.LastSegment(obj.Pkg().Path()) == pkg
}

// payloadFields maps checked composite-literal types to the field that
// carries an encodable payload. DataBatch.Payloads holds a slice whose
// literal elements are each checked. SnapshotOffer.State is absent: the
// application hands it over as an `any`, which nothing static can see
// through.
var payloadFields = map[string]string{
	"Data":      "Payload",
	"DataBatch": "Payloads",
	"WriteOp":   "Value",
}

// checkLit inspects payload-carrying fields of wire message literals.
func checkLit(pass *analysis.Pass, set map[string]bool, lit *ast.CompositeLit) {
	t := pass.TypeOf(lit)
	if t == nil {
		return
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	field, checked := payloadFields[named.Obj().Name()]
	if !checked {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != field {
			continue
		}
		if field == "Payloads" {
			if inner, ok := kv.Value.(*ast.CompositeLit); ok {
				for _, e := range inner.Elts {
					checkPayload(pass, set, e, named.Obj().Name()+".Payloads element")
				}
			}
			continue
		}
		checkPayload(pass, set, kv.Value, named.Obj().Name()+"."+field)
	}
}

// checkPayload reports expr when its static type is a concrete named
// (or pointer) type the wire layer cannot encode.
func checkPayload(pass *analysis.Pass, set map[string]bool, expr ast.Expr, site string) {
	t := pass.TypeOf(expr)
	if t == nil {
		return
	}
	t = types.Default(t)
	switch tt := t.(type) {
	case *types.Basic, *types.Interface, *types.TypeParam:
		return
	case *types.Named:
		if _, isIface := tt.Underlying().(*types.Interface); isIface {
			return
		}
		if set[typeKey(t)] {
			return
		}
		if pass.Prog.AllowedAt(tt.Obj().Pos(), "wireencodable") {
			return
		}
		pass.Reportf(expr.Pos(),
			"%s of type %s has no wire codec: wire.Register one next to the type (DESIGN.md, \"adding a message type\"), or mark its type declaration //halint:allow wireencodable -- <why>",
			site, typeKey(t))
	case *types.Pointer:
		pass.Reportf(expr.Pos(),
			"%s is a pointer (%s): wire payloads travel by value; dereference it",
			site, typeKey(t))
	}
}
