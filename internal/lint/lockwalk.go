package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the intraprocedural lock-flow walker behind lockcheck.
// It abstractly executes one function body in source order, tracking
// which mutexes are held at every program point, and hands the held set
// to the checker at re-locks, calls, and struct-field accesses. It is a
// walker of its own, not part of the call-graph summary walk, because
// the held set is path-sensitive (the joins below) and the summary walk
// is not.
//
// The flow model is deliberately simple but branch-aware:
//
//   - x.mu.Lock()/RLock() adds the lock to the held set; Unlock/RUnlock
//     removes it; `defer x.mu.Unlock()` marks it held ("sticky") until
//     the function returns.
//   - An if/else joins with the *intersection* of the branch states; a
//     branch that terminates (return, panic, break, continue, goto)
//     contributes nothing to the join, so the lock-then-early-return
//     idiom (`if bad { mu.Unlock(); return }`) keeps the lock held on
//     the fallthrough path.
//   - Loop and switch/select bodies are analyzed with a copy of the
//     entry state; the state after the statement is the entry state
//     (bodies are assumed lock-balanced — an unbalanced body shows up
//     as a double-lock or an unguarded access inside the loop itself).
//   - Function literals run later (goroutines, defers, callbacks), so
//     their bodies are analyzed with an empty held set.
//
// Methods whose name ends in "Locked" follow the repo convention that
// the caller holds every mutex field of the receiver; the walker seeds
// their entry state accordingly, and lockcheck separately enforces the
// caller side.

// lockRef is one held (or acquired) mutex: the field object identifies
// it globally, the path identifies the instance expression it was
// locked through in this function (e.g. "m.mu").
type lockRef struct {
	path   string
	field  *types.Var // mutex field or variable object (may be nil)
	rlock  bool       // held via RLock
	sticky bool       // deferred unlock or Locked-suffix seed
}

// lockState maps lock path → held lock.
type lockState map[string]*lockRef

func (st lockState) clone() lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		c := *v
		out[k] = &c
	}
	return out
}

// intersect keeps locks held in both states. A lock read-held on either
// side is only read-held in the join.
func intersect(a, b lockState) lockState {
	out := make(lockState)
	for k, v := range a {
		w, ok := b[k]
		if !ok {
			continue
		}
		c := *v
		c.rlock = v.rlock || w.rlock
		c.sticky = v.sticky && w.sticky
		out[k] = &c
	}
	return out
}

// lockWalker drives one function.
type lockWalker struct {
	p *Pass
	c *lockChecker
	// allocated holds local variables initialized from a composite
	// literal or new() in this function: values still private to the
	// function, whose fields need no lock before publication.
	allocated map[types.Object]bool
}

// walkLockFlow analyzes one declared function.
func walkLockFlow(p *Pass, fn *ast.FuncDecl, c *lockChecker) {
	if fn.Body == nil {
		return
	}
	w := &lockWalker{p: p, c: c, allocated: collectAllocated(p, fn.Body)}
	st := make(lockState)
	seedLockedConvention(p, fn, st)
	w.stmts(fn.Body.List, st)
}

// seedLockedConvention pre-holds every mutex field of the receiver for
// methods following the *Locked naming convention.
func seedLockedConvention(p *Pass, fn *ast.FuncDecl, st lockState) {
	if !lockedSuffix(fn.Name.Name) || fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return
	}
	recvName := fn.Recv.List[0].Names[0].Name
	if recvName == "_" {
		return
	}
	obj := p.Info.Defs[fn.Recv.List[0].Names[0]]
	if obj == nil {
		return
	}
	for _, mf := range mutexFieldsOf(obj.Type()) {
		key := recvName + "." + mf.Name()
		st[key] = &lockRef{path: key, field: mf, sticky: true}
	}
}

func lockedSuffix(name string) bool {
	return len(name) > len("Locked") && name[len(name)-len("Locked"):] == "Locked"
}

// mutexFieldsOf returns the sync.Mutex/RWMutex fields of t's underlying
// struct (dereferencing one pointer level).
func mutexFieldsOf(t types.Type) []*types.Var {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []*types.Var
	for i := 0; i < s.NumFields(); i++ {
		if isMutexType(s.Field(i).Type()) {
			out = append(out, s.Field(i))
		}
	}
	return out
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// collectAllocated scans for `x := &T{...}`, `x := T{...}`, `x := new(T)`
// local definitions: values constructed (not obtained) here.
func collectAllocated(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if !isAllocation(as.Rhs[i]) {
				continue
			}
			if obj := p.Info.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func isAllocation(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

// --- statement walk ---

func (w *lockWalker) stmts(list []ast.Stmt, st lockState) {
	for _, s := range list {
		w.stmt(s, st)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, st lockState) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, st, false)
	case *ast.SendStmt:
		w.expr(s.Chan, st, false)
		w.expr(s.Value, st, false)
	case *ast.IncDecStmt:
		w.expr(s.X, st, true)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r, st, false)
		}
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			w.expr(l, st, true)
		}
	case *ast.GoStmt:
		w.callAsync(s.Call, st)
	case *ast.DeferStmt:
		if lk, op := w.mutexOp(s.Call, st); op == opUnlock {
			if held, ok := st[lk.path]; ok {
				held.sticky = true
			}
			return
		}
		w.callAsync(s.Call, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, st, false)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.expr(s.Cond, st, false)
		thenSt := st.clone()
		w.stmts(s.Body.List, thenSt)
		elseSt := st.clone()
		if s.Else != nil {
			w.stmt(s.Else, elseSt)
		}
		thenTerm := terminates(s.Body)
		elseTerm := s.Else != nil && stmtTerminates(s.Else)
		switch {
		case thenTerm && elseTerm:
			// fallthrough unreachable; keep entry state
		case thenTerm:
			replace(st, elseSt)
		case elseTerm:
			replace(st, thenSt)
		default:
			replace(st, intersect(thenSt, elseSt))
		}
	case *ast.BlockStmt:
		w.stmts(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			w.expr(s.Cond, st, false)
		}
		body := st.clone()
		w.stmts(s.Body.List, body)
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.expr(s.X, st, false)
		body := st.clone()
		w.stmts(s.Body.List, body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			w.expr(s.Tag, st, false)
		}
		w.clauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.stmt(s.Assign, st)
		w.clauses(s.Body, st)
	case *ast.SelectStmt:
		w.clauses(s.Body, st)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, st, false)
					}
				}
			}
		}
	}
}

// clauses walks each case body with a copy of the entry state and joins
// the non-terminating outcomes; the post-statement state is the entry
// state (a lock taken in one arm of a switch rarely survives the join
// meaningfully, and never does in this repo's style).
func (w *lockWalker) clauses(body *ast.BlockStmt, st lockState) {
	for _, c := range body.List {
		arm := st.clone()
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.expr(e, arm, false)
			}
			w.stmts(c.Body, arm)
		case *ast.CommClause:
			if c.Comm != nil {
				w.stmt(c.Comm, arm)
			}
			w.stmts(c.Body, arm)
		}
	}
}

func replace(dst, src lockState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// terminates reports whether the block always transfers control away.
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	return stmtTerminates(b.List[len(b.List)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s)
	case *ast.IfStmt:
		return terminates(s.Body) && s.Else != nil && stmtTerminates(s.Else)
	}
	return false
}

// --- expression walk ---

func (w *lockWalker) expr(e ast.Expr, st lockState, write bool) {
	switch e := e.(type) {
	case *ast.CallExpr:
		w.call(e, st)
	case *ast.SelectorExpr:
		if field := w.fieldOf(e); field != nil && !w.isAllocatedBase(e.X) {
			w.c.access(e, ast.Unparen(e.X), field, write, st)
		}
		w.expr(e.X, st, false)
	case *ast.CompositeLit:
		// Keys of struct literals are field names, not accesses: a value
		// under construction is unpublished and needs no lock.
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value, st, false)
				continue
			}
			w.expr(elt, st, false)
		}
	case *ast.FuncLit:
		// Runs later, possibly on another goroutine: empty held set.
		lw := &lockWalker{p: w.p, c: w.c, allocated: collectAllocated(w.p, e.Body)}
		lw.stmts(e.Body.List, make(lockState))
	case *ast.ParenExpr:
		w.expr(e.X, st, write)
	case *ast.StarExpr:
		w.expr(e.X, st, write)
	case *ast.UnaryExpr:
		w.expr(e.X, st, write || e.Op == token.AND)
	case *ast.BinaryExpr:
		w.expr(e.X, st, false)
		w.expr(e.Y, st, false)
	case *ast.IndexExpr:
		w.expr(e.X, st, write)
		w.expr(e.Index, st, false)
	case *ast.SliceExpr:
		w.expr(e.X, st, write)
		for _, x := range []ast.Expr{e.Low, e.High, e.Max} {
			if x != nil {
				w.expr(x, st, false)
			}
		}
	case *ast.TypeAssertExpr:
		w.expr(e.X, st, false)
	case *ast.KeyValueExpr:
		w.expr(e.Key, st, false)
		w.expr(e.Value, st, false)
	}
}

// callAsync handles go/defer calls: arguments are evaluated now (under
// the current state); a literal body runs later with nothing held.
func (w *lockWalker) callAsync(call *ast.CallExpr, st lockState) {
	for _, a := range call.Args {
		w.expr(a, st, false)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		lw := &lockWalker{p: w.p, c: w.c, allocated: collectAllocated(w.p, lit.Body)}
		lw.stmts(lit.Body.List, make(lockState))
		return
	}
	w.expr(call.Fun, st, false)
	if callee, base := w.calleeOf(call); callee != nil {
		w.c.call(callee, base, w.isAllocatedBase(base), call.Pos(), st)
	}
}

func (w *lockWalker) call(call *ast.CallExpr, st lockState) {
	if tv, ok := w.p.Info.Types[call.Fun]; ok && tv.IsType() { // conversion
		for _, a := range call.Args {
			w.expr(a, st, false)
		}
		return
	}
	if lk, op := w.mutexOp(call, st); op != opNone {
		switch op {
		case opLock, opRLock:
			if _, dup := st[lk.path]; dup {
				w.c.doubleLock(lk, call.Pos())
			} else {
				st[lk.path] = lk
			}
		case opUnlock:
			delete(st, lk.path)
		}
		return
	}
	w.expr(call.Fun, st, false)
	for _, a := range call.Args {
		w.expr(a, st, false)
	}
	if callee, base := w.calleeOf(call); callee != nil {
		w.c.call(callee, base, w.isAllocatedBase(base), call.Pos(), st)
	}
}

// isAllocatedBase reports whether e is an identifier for a local the
// function itself constructed (still unpublished, needs no lock).
func (w *lockWalker) isAllocatedBase(e ast.Expr) bool {
	if e == nil {
		return false
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := w.p.Info.Uses[id]
	return obj != nil && w.allocated[obj]
}

type mutexOpKind int

const (
	opNone mutexOpKind = iota
	opLock
	opRLock
	opUnlock
)

// mutexOp recognizes X.Lock / X.RLock / X.Unlock / X.RUnlock where X is
// a sync.Mutex/RWMutex expression, and walks X's base chain (reads).
func (w *lockWalker) mutexOp(call *ast.CallExpr, st lockState) (*lockRef, mutexOpKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, opNone
	}
	var kind mutexOpKind
	rlock := false
	switch sel.Sel.Name {
	case "Lock":
		kind = opLock
	case "RLock":
		kind, rlock = opRLock, true
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return nil, opNone
	}
	mx := ast.Unparen(sel.X)
	if !isMutexType(w.p.Info.TypeOf(mx)) {
		return nil, opNone
	}
	var field *types.Var
	switch mx := mx.(type) {
	case *ast.SelectorExpr:
		field = w.fieldOf(mx)
		// The chain below the mutex is a read (e.g. s.pool in
		// s.pool.mu.Lock()).
		w.expr(mx.X, st, false)
	case *ast.Ident:
		if v, ok := w.p.Info.Uses[mx].(*types.Var); ok {
			field = v
		}
	}
	return &lockRef{path: exprPath(mx), field: field, rlock: rlock}, kind
}

// fieldOf resolves a selector to the struct field it reads, if any.
func (w *lockWalker) fieldOf(sel *ast.SelectorExpr) *types.Var {
	s, ok := w.p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// calleeOf resolves the called function or method, plus the receiver
// expression for method calls.
func (w *lockWalker) calleeOf(call *ast.CallExpr) (*types.Func, ast.Expr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := w.p.Info.Uses[fun].(*types.Func)
		return f, nil
	case *ast.SelectorExpr:
		if s, ok := w.p.Info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			f, _ := s.Obj().(*types.Func)
			return f, ast.Unparen(fun.X)
		}
		// Package-qualified function.
		f, _ := w.p.Info.Uses[fun.Sel].(*types.Func)
		return f, nil
	}
	return nil, nil
}

// exprPath renders the instance path of an expression ("m.mu",
// "s.pool.mu"). Index expressions and calls render through
// types.ExprString for stability.
func exprPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprPath(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprPath(e.X)
	default:
		return types.ExprString(e)
	}
}
