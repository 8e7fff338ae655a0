package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

// TestEveryDeclarationHasACaller is the caller census: every top-level
// function and type declared in a non-test file of the module (bench/,
// cmd/ and examples/ included, testdata/ excluded) must be used by
// some non-test code other than its own declaration. A capability only
// tests reach is code no binary runs, so it goes, together with the
// tests that check only it.
//
// Methods are exempt because they satisfy interfaces without a named
// call; so are main and init. A type's own method receivers do not
// count as uses. Uses are matched by Origin(), so an instantiation of a
// generic function or type counts for its declaration. There is no
// allowlist.
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

// uncalledDecls returns, sorted, the qualified names of the top-level
// functions and types in pkgs that no code in pkgs uses outside their
// own declaration and their own method receivers.
func uncalledDecls(pkgs []*Package) []string {
	type decl struct {
		name     string
		pos, end token.Pos
	}
	decls := map[types.Object]decl{}
	receiverIdents := map[*ast.Ident]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receiverIdents[id] = true
							}
							return true
						})
						continue
					}
					if d.Name.Name == "main" || d.Name.Name == "init" {
						continue
					}
					if obj := p.Info.Defs[d.Name]; obj != nil {
						decls[obj] = decl{p.Path + "." + d.Name.Name, d.Pos(), d.End()}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok || ts.Name.Name == "_" {
							continue
						}
						if obj := p.Info.Defs[ts.Name]; obj != nil {
							decls[obj] = decl{p.Path + "." + ts.Name.Name, ts.Pos(), ts.End()}
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
	var out []string
	for obj, d := range decls {
		if !used[obj] {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}

// origin maps an instantiated generic function or type back to its
// declaration.
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
