package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Lockcheck enforces the `// guarded by` annotation grammar: a struct
// field annotated `// guarded by mu` (a sibling mutex field) or
// `// guarded by Owner.mu` (the mutex of another package-local struct)
// may only be read or written while that mutex is held. A mutex is
// held on a program point if the function locked it earlier on every
// path (including via `defer mu.Unlock()`), or the function follows
// the *Locked naming convention, in which case the caller must hold
// every mutex field of the receiver — lockcheck checks those call
// sites too. Re-locking an already-held mutex on the same instance
// path is flagged as a guaranteed deadlock (sync mutexes are not
// reentrant). Values still private to their constructor (`x := &T{...}`)
// are exempt: they are unpublished and cannot race.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "fields annotated `// guarded by mu` must be accessed with the lock held",
	Run:  runLockcheck,
}

var guardedByRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)

// guard is one parsed annotation: the mutex that protects a field.
type guard struct {
	mu      *types.Var // resolved mutex field
	muName  string     // mutex field name ("mu")
	owner   string     // cross-struct owner type name, "" for sibling guards
	sibling bool
}

func runLockcheck(p *Pass) {
	guards := collectGuards(p)
	checker := &lockChecker{p: p, guards: guards}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			walkLockFlow(p, fn, checker)
		}
	}
}

// collectGuards parses `// guarded by` annotations off struct fields
// and resolves them, reporting malformed annotations in place.
func collectGuards(p *Pass) map[*types.Var]*guard {
	out := make(map[*types.Var]*guard)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				muName, ownerName, ok := guardAnnotation(field)
				if !ok {
					continue
				}
				g := resolveGuard(p, st, field, muName, ownerName)
				if g == nil {
					continue
				}
				for _, name := range field.Names {
					if v, ok := p.Info.Defs[name].(*types.Var); ok {
						out[v] = g
					}
				}
			}
			return true
		})
	}
	return out
}

// guardAnnotation extracts "guarded by X" / "guarded by Owner.X" from a
// field's doc or trailing line comment.
func guardAnnotation(field *ast.Field) (mu, owner string, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			m := guardedByRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			if m[2] != "" {
				return m[2], m[1], true
			}
			return m[1], "", true
		}
	}
	return "", "", false
}

// resolveGuard binds an annotation to the mutex field it names:
// a sibling field of the same struct, or a field of a package-local
// owner struct.
func resolveGuard(p *Pass, st *ast.StructType, field *ast.Field, muName, ownerName string) *guard {
	if ownerName == "" {
		for _, sib := range st.Fields.List {
			for _, name := range sib.Names {
				if name.Name != muName {
					continue
				}
				v, ok := p.Info.Defs[name].(*types.Var)
				if !ok || !isMutexType(v.Type()) {
					p.Reportf(field.Pos(), "guarded-by annotation names %q, which is not a sync.Mutex/RWMutex sibling field", muName)
					return nil
				}
				return &guard{mu: v, muName: muName, sibling: true}
			}
		}
		p.Reportf(field.Pos(), "guarded-by annotation names %q, but the struct has no such field", muName)
		return nil
	}
	obj, ok := p.Pkg.Scope().Lookup(ownerName).(*types.TypeName)
	if !ok {
		p.Reportf(field.Pos(), "guarded-by annotation names unknown type %q in this package", ownerName)
		return nil
	}
	for _, mf := range mutexFieldsOf(obj.Type()) {
		if mf.Name() == muName {
			return &guard{mu: mf, muName: muName, owner: ownerName}
		}
	}
	p.Reportf(field.Pos(), "guarded-by annotation: %s has no sync.Mutex/RWMutex field %q", ownerName, muName)
	return nil
}

type lockChecker struct {
	p      *Pass
	guards map[*types.Var]*guard
}

func (c *lockChecker) doubleLock(lk *lockRef, pos token.Pos) {
	c.p.Reportf(pos, "%s locked twice on the same path without an intervening unlock (sync mutexes are not reentrant: this deadlocks)", lk.path)
}

func (c *lockChecker) access(sel *ast.SelectorExpr, base ast.Expr, field *types.Var, write bool, held lockState) {
	g, ok := c.guards[field]
	if !ok {
		return
	}
	verb := "read of"
	if write {
		verb = "write to"
	}
	if g.sibling {
		want := exprPath(base) + "." + g.muName
		lk, ok := held[want]
		if !ok {
			c.p.Reportf(sel.Sel.Pos(), "%s %s.%s without holding %s (field is guarded by %s)",
				verb, exprPath(base), field.Name(), want, g.muName)
			return
		}
		if write && lk.rlock {
			c.p.Reportf(sel.Sel.Pos(), "write to %s.%s while %s is only read-locked; writes require Lock",
				exprPath(base), field.Name(), want)
		}
		return
	}
	// Cross-struct guard: any held lock resolving to the owner's mutex
	// field satisfies the access (the annotation cannot name the
	// specific instance, so this is a field-identity check).
	for _, lk := range held {
		if lk.field == g.mu {
			if write && lk.rlock {
				c.p.Reportf(sel.Sel.Pos(), "write to %s.%s while %s.%s is only read-locked; writes require Lock",
					exprPath(base), field.Name(), g.owner, g.muName)
			}
			return
		}
	}
	c.p.Reportf(sel.Sel.Pos(), "%s %s.%s without holding %s.%s (field is guarded by %s.%s)",
		verb, exprPath(base), field.Name(), g.owner, g.muName, g.owner, g.muName)
}

// call enforces the caller side of the *Locked convention: invoking
// base.fooLocked() requires every mutex field of base's type held on
// base's instance path.
func (c *lockChecker) call(callee *types.Func, base ast.Expr, allocated bool, pos token.Pos, held lockState) {
	if base == nil || allocated || !lockedSuffix(callee.Name()) {
		return
	}
	basePath := exprPath(base)
	for _, mf := range mutexFieldsOf(c.p.Info.TypeOf(base)) {
		want := basePath + "." + mf.Name()
		if _, ok := held[want]; !ok {
			c.p.Reportf(pos, "call to %s requires %s to be held (the Locked suffix means the caller locks)",
				callee.Name(), want)
		}
	}
}
