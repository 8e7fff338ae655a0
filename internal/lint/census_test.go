package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

// TestEveryDeclarationHasACaller is the caller census: every top-level
// function, type, constant and package variable, and every method,
// declared in a non-test file of the module (bench/, cmd/ and
// examples/ included, testdata/ excluded) must be used by some non-test
// code other than its own declaration. A capability only tests reach
// is code no binary runs, so it goes, together with the tests that
// check only it.
//
// main, init and blank names are exempt. A type's own method receivers
// do not count as uses. Uses are matched by Origin(), so an
// instantiation of a generic function, type or method counts for its
// declaration. A method with no named use is still exempt when its
// receiver type T or *T implements an interface that non-test code
// reaches and that declares a method of that name (http.Handler,
// sort.Interface, heap.Interface), or when its name is one fmt and
// encoding call by reflection (String, Error, the marshalers). There is
// no allowlist.
func TestEveryDeclarationHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := testLoader(t).LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range uncalledDecls(pkgs) {
		t.Errorf("declared but used only by tests or not at all: %s", name)
	}
}

// reflectedMethods are the method names fmt and encoding/* find by
// interface assertion on an any, so no call site names them.
var reflectedMethods = map[string]bool{
	"String": true, "Error": true, "Format": true, "GoString": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

// uncalledDecls returns, sorted, the qualified names of the top-level
// declarations and methods in pkgs that no code in pkgs uses outside
// their own declaration and their own method receivers, less the
// methods an interface or reflection may call.
func uncalledDecls(pkgs []*Package) []string {
	type decl struct {
		name     string
		pos, end token.Pos
	}
	decls := map[types.Object]decl{}
	receiverIdents := map[*ast.Ident]bool{}
	add := func(p *Package, id *ast.Ident, name string, n ast.Node) {
		if id.Name == "_" {
			return
		}
		if obj := p.Info.Defs[id]; obj != nil {
			decls[obj] = decl{p.Path + "." + name, n.Pos(), n.End()}
		}
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						if d.Name.Name != "main" && d.Name.Name != "init" {
							add(p, d.Name, d.Name.Name, d)
						}
						continue
					}
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receiverIdents[id] = true
						}
						return true
					})
					if recv := receiverName(p, d); recv != "" {
						add(p, d.Name, recv+"."+d.Name.Name, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(p, s.Name, s.Name.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(p, id, id.Name, s)
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			obj = origin(obj)
			d, ok := decls[obj]
			if !ok || used[obj] || (d.pos <= id.Pos() && id.Pos() < d.end) || receiverIdents[id] {
				continue
			}
			used[obj] = true
		}
	}
	ifaces := reachedInterfaces(pkgs)
	var out []string
	for obj, d := range decls {
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			if reflectedMethods[fn.Name()] || implementsNamed(fn, ifaces[fn.Name()]) {
				continue
			}
		}
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

// receiverName is the name of the type a method is declared on, or ""
// when the receiver does not type-check.
func receiverName(p *Package, d *ast.FuncDecl) string {
	if fn, ok := p.Info.Defs[d.Name].(*types.Func); ok {
		if n, ok := recvType(fn).(*types.Named); ok {
			return n.Obj().Name()
		}
	}
	return ""
}

// recvType is the type method fn is declared on, pointer stripped.
func recvType(fn *types.Func) types.Type {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// implementsNamed reports whether the receiver type T of method fn, or
// *T, implements one of ifaces.
func implementsNamed(fn *types.Func, ifaces []*types.Interface) bool {
	t := recvType(fn)
	for _, it := range ifaces {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// reachedInterfaces indexes by method name every interface non-test
// code reaches: the type of any expression, and the type of any object
// defined or used, followed through signatures, struct fields, type
// parameter constraints and element types (but not into the underlying
// type of a named non-interface type).
func reachedInterfaces(pkgs []*Package) map[string][]*types.Interface {
	seen := map[types.Type]bool{}
	byName := map[string][]*types.Interface{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok {
				walk(it)
			}
			if args := t.TypeArgs(); args != nil {
				for i := 0; i < args.Len(); i++ {
					walk(args.At(i))
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				m := t.Method(i)
				byName[m.Name()] = append(byName[m.Name()], t)
			}
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
			if tps := t.TypeParams(); tps != nil {
				for i := 0; i < tps.Len(); i++ {
					walk(tps.At(i))
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		case *types.TypeParam:
			walk(t.Constraint())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		}
	}
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			walk(tv.Type)
		}
		for _, obj := range p.Info.Defs {
			if obj != nil {
				walk(obj.Type())
			}
		}
		for _, obj := range p.Info.Uses {
			walk(obj.Type())
		}
	}
	return byName
}

// origin maps an instantiated generic function, method or type back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.TypeName:
		if n, ok := o.Type().(*types.Named); ok && !o.IsAlias() {
			return n.Origin().Obj()
		}
	}
	return obj
}
