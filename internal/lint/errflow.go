package lint

import (
	"go/ast"
	"go/types"
)

// Errflow bans silently discarded errors and daemon-path panics.
//
// A call whose results include an error must not appear as a bare
// statement or `defer`, and an error value must not be assigned to
// `_` — either handle it, propagate it, or add a lint.allow entry
// whose comment says why ignoring it is sound (e.g. Close on a
// read-only file after a successful read). Exempt by construction:
// the fmt package (its Print/Fprint errors are terminal-write
// failures the caller cannot act on) and methods on strings.Builder /
// bytes.Buffer (documented to never return errors).
//
// Separately, `panic` is banned in packages the daemon's request path
// reaches (controlplane, datamgr, remoteio, cache, metrics, testbed,
// faults): a panic there takes down the scheduler for every job, so
// those layers must return errors instead.
var Errflow = &Analyzer{
	Name: "errflow",
	Doc:  "no discarded error returns, and no panic in daemon-reachable packages",
	Run:  runErrflow,
}

// daemonPkgs are the import-path suffixes the silodd request path
// reaches; panicking there is a denial of service, not error handling.
var daemonPkgs = []string{
	"internal/controlplane",
	"internal/datamgr",
	"internal/remoteio",
	"internal/cache",
	"internal/metrics",
	"internal/testbed",
	"internal/faults",
}

func runErrflow(p *Pass) {
	banPanic := pathEndsInAny(p.Path, daemonPkgs)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				checkBareCall(p, n.X)
			case *ast.DeferStmt:
				checkBareCall(p, n.Call)
			case *ast.GoStmt:
				// A goroutine's return values vanish by construction.
				return true
			case *ast.AssignStmt:
				checkBlankError(p, n)
			case *ast.CallExpr:
				if banPanic {
					id, ok := n.Fun.(*ast.Ident)
					if !ok || id.Name != "panic" {
						return true
					}
					if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
						p.Reportf(n.Pos(), "panic in daemon-reachable package %s: return an error instead", p.Path)
					}
				}
			}
			return true
		})
	}
}

// checkBareCall flags a statement-position call that returns an error
// nobody looks at.
func checkBareCall(p *Pass, x ast.Expr) {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return
	}
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	if !returnsError(p, call) || exemptCallee(p, call) {
		return
	}
	p.Reportf(call.Pos(), "discarded error return from %s: handle it, propagate it, or allowlist with justification", calleeName(call))
}

// checkBlankError flags `_` bindings whose value is an error.
func checkBlankError(p *Pass, as *ast.AssignStmt) {
	blankAt := func(i int) bool {
		id, ok := as.Lhs[i].(*ast.Ident)
		return ok && id.Name == "_"
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// v, _ := f() — position i of the tuple feeds LHS i.
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		tuple, ok := p.Info.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(as.Lhs) {
			return
		}
		for i := 0; i < tuple.Len(); i++ {
			if blankAt(i) && isErrorType(tuple.At(i).Type()) && !exemptCallee(p, call) {
				p.Reportf(as.Lhs[i].Pos(), "error from %s assigned to _: handle it, propagate it, or allowlist with justification", calleeName(call))
			}
		}
		return
	}
	if len(as.Rhs) != len(as.Lhs) {
		return
	}
	for i := range as.Lhs {
		if blankAt(i) && isErrorType(p.Info.TypeOf(as.Rhs[i])) {
			p.Reportf(as.Lhs[i].Pos(), "error value assigned to _: handle it, propagate it, or allowlist with justification")
		}
	}
}

// returnsError reports whether any of the call's results is an error.
func returnsError(p *Pass, call *ast.CallExpr) bool {
	t := p.Info.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// exemptCallee: fmt.* (write errors to a terminal are unactionable)
// and methods on strings.Builder/bytes.Buffer (never fail, per spec).
func exemptCallee(p *Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pkg, ok := pkgNameOf(p.Info, id); ok && pkg == "fmt" {
				return true
			}
		}
		if sel, ok := p.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			return isNeverFailingWriter(sel.Recv())
		}
	case *ast.Ident:
		if f, ok := p.Info.Uses[fun].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
			return true
		}
	}
	return false
}

func isNeverFailingWriter(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return exprPath(fun)
	}
	return "call"
}
