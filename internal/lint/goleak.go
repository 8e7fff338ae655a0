package lint

import (
	"go/ast"
	"go/types"
)

// Goleak requires every `go` statement to have a visible shutdown
// path. A goroutine passes if:
//
//   - its function-literal body receives from a channel (<-ch, a
//     select statement, or `for range ch`), so a close or send can
//     unblock and stop it;
//   - its body calls Done or Wait on a sync.WaitGroup, tying its
//     lifetime to a waiter;
//   - it is a named call taking a channel or context.Context argument,
//     delegating shutdown to the callee (e.g. `go s.Serve(cfg, stop, onErr)`).
//
// Anything else — fire-and-forget goroutines that outlive their
// spawner — must carry a justified lint.allow entry. Leaked goroutines
// in the daemon accumulate across scheduler rounds; in tests they make
// -race and goroutine dumps useless.
var Goleak = &Analyzer{
	Name: "goleak",
	Doc:  "every go statement needs a shutdown path: done/ctx channel, WaitGroup, or allowlist",
	Run:  runGoleak,
}

func runGoleak(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goHasShutdownPath(p, gs.Call) {
				p.Reportf(gs.Pos(), "goroutine has no shutdown path: select on a done/ctx channel, tie it to a sync.WaitGroup, or add a justified lint.allow entry")
			}
			return true
		})
	}
}

func goHasShutdownPath(p *Pass, call *ast.CallExpr) bool {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		return bodyHasShutdownPath(p, lit.Body)
	}
	for _, arg := range call.Args {
		if isShutdownCarrier(p.Info.TypeOf(arg)) {
			return true
		}
	}
	return false
}

// bodyHasShutdownPath scans a goroutine body (not descending into
// nested go statements, which are separate goroutines with their own
// obligations) for a channel receive or a WaitGroup Done/Wait.
func bodyHasShutdownPath(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if _, ok := p.Info.TypeOf(n.X).Underlying().(*types.Chan); ok {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Done" || sel.Sel.Name == "Wait") &&
				isWaitGroup(p.Info.TypeOf(sel.X)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isShutdownCarrier reports whether t is a channel or context.Context:
// an argument the callee can use to observe shutdown.
func isShutdownCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
