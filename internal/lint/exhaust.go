package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Exhaust enforces the closed-enum convention: a named type annotated
// // silod:enum promises that its declared constants (in the defining
// package) are the complete value set, and every switch over the type
// must either cover all of them or carry an explicit default. The enum
// surface this protects — tenant.SLOClass, the fault kinds, the
// timeline event kinds, the policy/cache-system selectors — is exactly
// where a silently missing case turns into a job that is never
// preempted or a fault that is never recovered (the KindJobCrash class
// of bug this PR's sweep fixed in internal/faults).
//
// Coverage is judged by constant *value*, so iota aliases count as
// covered when any spelling of the value appears. A switch containing a
// non-constant case expression cannot be proven either way and is
// skipped — the convention is constant cases, and the skipping is
// documented rather than silent (docs/static-analysis.md).
//
// The analyzer is whole-module through the standard Finish hook:
// the annotation lives on the defining package's type declaration, but
// switches over the type anywhere in the module are checked.
var Exhaust = &Analyzer{
	Name: "exhaust",
	Doc: "switches over // silod:enum types must cover every declared " +
		"constant or carry an explicit default",
	Run:    runExhaust,
	Finish: finishExhaust,
}

const exhaustKey = "exhaust"

// exSwitch is one recorded switch over a named type.
type exSwitch struct {
	tn         *types.TypeName
	pos        token.Pos
	hasDefault bool
	dynamic    bool     // a non-constant case expression: unprovable
	covered    []string // constant.Value.ExactString() per case, source order
}

// exFragment is one package's contribution.
type exFragment struct {
	enums    []*types.TypeName
	switches []exSwitch
}

type exState struct {
	pkgs map[string]*exFragment
}

func exStateIn(shared map[string]any) *exState {
	if st, ok := shared[exhaustKey].(*exState); ok {
		return st
	}
	st := &exState{pkgs: make(map[string]*exFragment)}
	shared[exhaustKey] = st
	return st
}

func runExhaust(p *Pass) {
	st := exStateIn(p.Shared)
	f := &exFragment{}
	st.pkgs[p.Path] = f
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !docHasMarker(typeSpecDoc(gd, ts), "silod:enum") {
					continue
				}
				tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				if _, isBasic := tn.Type().Underlying().(*types.Basic); !isBasic {
					p.Reportf(ts.Pos(), "silod:enum applies to types with a basic underlying type (int or string constants); %s does not qualify", ts.Name.Name)
					continue
				}
				if len(enumConstants(tn)) == 0 {
					p.Reportf(ts.Pos(), "silod:enum type %s declares no constants in its package: the annotation promises a closed value set", ts.Name.Name)
					continue
				}
				f.enums = append(f.enums, tn)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := p.Info.Types[sw.Tag]
			if !ok {
				return true
			}
			named, ok := tv.Type.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return true
			}
			rec := exSwitch{tn: named.Obj(), pos: sw.Pos()}
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				if len(cc.List) == 0 {
					rec.hasDefault = true
					continue
				}
				for _, e := range cc.List {
					if ctv, ok := p.Info.Types[e]; ok && ctv.Value != nil {
						rec.covered = append(rec.covered, ctv.Value.ExactString())
					} else {
						rec.dynamic = true
					}
				}
			}
			f.switches = append(f.switches, rec)
			return true
		})
	}
}

// enumConstant is one declared constant of an enum type.
type enumConstant struct {
	name  string
	value string // constant.Value.ExactString()
}

// enumConstants lists the constants of tn's type declared in its own
// package, in scope (sorted-name) order.
func enumConstants(tn *types.TypeName) []enumConstant {
	pkg := tn.Pkg()
	if pkg == nil {
		return nil
	}
	var out []enumConstant
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), tn.Type()) {
			continue
		}
		out = append(out, enumConstant{name: name, value: c.Val().ExactString()})
	}
	return out
}

func finishExhaust(p *Pass) {
	st, ok := p.Shared[exhaustKey].(*exState)
	if !ok {
		return
	}
	paths := make([]string, 0, len(st.pkgs))
	for path := range st.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	enums := make(map[*types.TypeName]bool)
	for _, path := range paths {
		for _, tn := range st.pkgs[path].enums {
			enums[tn] = true
		}
	}
	for _, path := range paths {
		for _, sw := range st.pkgs[path].switches {
			if !enums[sw.tn] || sw.hasDefault || sw.dynamic {
				continue
			}
			covered := make(map[string]bool, len(sw.covered))
			for _, v := range sw.covered {
				covered[v] = true
			}
			var missing []string
			for _, c := range enumConstants(sw.tn) {
				if !covered[c.value] {
					missing = append(missing, c.name)
				}
			}
			if len(missing) == 0 {
				continue
			}
			p.Reportf(sw.pos,
				"switch over closed enum %s.%s misses %s: cover every declared constant or add an explicit default",
				sw.tn.Pkg().Name(), sw.tn.Name(), strings.Join(missing, ", "))
		}
	}
}
