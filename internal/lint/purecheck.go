package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PureCheck machine-verifies the // silod:pure annotation language that
// backs core.PureAssigner: core.Round's solve-skip memo replays a
// cached assignment only when the policy's Assign is a pure function
// of (cluster, jobs), so a wrong purity claim silently corrupts seeded
// replay. Before this analyzer the claims lived in prose in
// internal/policy/pure.go; now they are a compile gate.
//
// Annotation grammar (doc comments; see docs/static-analysis.md):
//
//	// silod:pure [assume=Iface1,Iface2]
//	// silod:pure-requires: Name[, Name...]
//
// A silod:pure function must be a deterministic function of its
// arguments. Within the body (including nested function literals) the
// analyzer rejects:
//
//   - reading a wall-clock (unit.Time) parameter — Gavel's finish-time
//     fairness objective does this, which is exactly why it is not pure;
//   - reading or writing a package-level variable;
//   - goroutines and channel operations;
//   - map-iteration order reaching an order-sensitive sink (maporder's
//     sinks, read off the call-graph summary);
//   - calls to anything that is not itself silod:pure, a builtin, a
//     conversion, a pure-stdlib function, or a method of an interface
//     named in the assume= list.
//
// assume= is the bridge to runtime vetting: StorageAllocator values are
// checked dynamically by policy.allocatorPure and Policy values by
// core.NewRound (their PureAssign declaration), so a call through
// those interfaces is pure exactly when the runtime gate says so. The analyzer verifies everything else and trusts the named
// interface — naming it in the annotation is the auditable record.
//
// silod:pure-requires is the reverse edge: a PureAssign method that
// returns true for some configuration names the Assign path it vouches
// for, and the analyzer fails if that function exists without a
// silod:pure annotation (or stops existing). Deleting an annotation to
// silence the checker therefore breaks the build, not the replay.
//
// Soundness gaps, accepted and documented: calls through plain
// func-typed values are not resolved (the repo's pure paths only build
// such values from local closures), and assume= trusts the runtime
// vetting in pure.go.
var PureCheck = &Analyzer{
	Name: "purecheck",
	Doc: "functions annotated // silod:pure must be deterministic in " +
		"their arguments: no wall clock, no RNG, no mutable package " +
		"state, no map-order-sensitive results, and only pure callees",
	Run:    runPureCheck,
	Finish: finishPureCheck,
}

// pureStdlibPkgs are standard-library packages whose exported functions
// are deterministic in their arguments (no clock, no global RNG, no
// hidden mutable state). sync is included for Mutex/Once plumbing:
// locking is about *safety*, and a pure function may still guard a
// receiver-local map behind a mutex (tenant.Registry.List).
var pureStdlibPkgs = map[string]bool{
	"math":         true,
	"sort":         true,
	"strings":      true,
	"strconv":      true,
	"errors":       true,
	"slices":       true,
	"cmp":          true,
	"unicode":      true,
	"unicode/utf8": true,
	"sync":         true,
}

// pureFmtFuncs are the fmt functions that only build strings; the
// printing ones are side effects and stay banned.
var pureFmtFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

// parsePureDoc extracts the annotation lines from a doc comment;
// summary.go records them on the function's fnInfo.
func parsePureDoc(doc *ast.CommentGroup) (pure bool, assume map[string]bool, requires, badOpts []string) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		switch {
		case strings.HasPrefix(text, "silod:pure-requires:"):
			for _, name := range strings.Split(strings.TrimPrefix(text, "silod:pure-requires:"), ",") {
				if name = strings.TrimSpace(name); name != "" {
					requires = append(requires, name)
				}
			}
		case text == "silod:pure" || strings.HasPrefix(text, "silod:pure "):
			pure = true
			for _, field := range strings.Fields(strings.TrimPrefix(text, "silod:pure")) {
				v, ok := strings.CutPrefix(field, "assume=")
				if !ok {
					badOpts = append(badOpts, field)
					continue
				}
				if assume == nil {
					assume = make(map[string]bool)
				}
				for _, n := range strings.Split(v, ",") {
					if n = strings.TrimSpace(n); n != "" {
						assume[n] = true
					}
				}
			}
		}
	}
	return
}

// runPureCheck judges what one package can decide alone: the body rules,
// the map-order sinks the summary found, and interface calls, which
// must be vouched for with assume=.
func runPureCheck(p *Pass) {
	for _, fi := range ensureCGFragment(p).fns {
		if !fi.pure {
			continue
		}
		name := fi.fn.Name()
		if fi.decl.Body != nil {
			checkPureBody(p, fi)
		}
		for _, s := range fi.order {
			p.Reportf(s.pos, "silod:pure function %s: %s", name, s.msg)
		}
		for _, c := range fi.calls {
			if c.method == "" {
				continue
			}
			iface := "interface"
			if c.iface != nil {
				iface = c.iface.Name()
			}
			if !fi.assume[iface] {
				p.Reportf(c.pos, "silod:pure function %s calls %s.%s through an interface the checker cannot resolve; if every runtime implementation is vetted pure (see internal/policy/pure.go), annotate // silod:pure assume=%s", name, iface, c.method, iface)
			}
		}
	}
}

// checkPureBody runs the intraprocedural rules over one annotated
// function.
func checkPureBody(p *Pass, fi *fnInfo) {
	fd, name := fi.decl, fi.fn.Name()
	// A unit.Time parameter is the caller's clock: a pure assignment may
	// receive one (core.Policy.Assign has it in the signature) but must
	// not let it influence the result.
	timeParams := make(map[types.Object]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, id := range field.Names {
				obj := p.Info.Defs[id]
				if obj == nil {
					continue
				}
				if n, ok := unitType(obj.Type()); ok && n == "Time" {
					timeParams[obj] = true
				}
			}
		}
	}
	// Forwarding a time parameter bare into another call is fine: the
	// callee is itself verified (pure callees cannot use it either, and
	// assumed interfaces are runtime-vetted). Only *computing* with it
	// — arithmetic, comparison, conversion, method receiver — makes the
	// result time-dependent. Collect the forwarded ident nodes first.
	forwarded := make(map[*ast.Ident]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			return true // a conversion consumes the value
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
				return true // append(s, now) stores the value
			}
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				forwarded[id] = true
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			p.Reportf(n.Pos(), "silod:pure function %s starts a goroutine: goroutine scheduling is nondeterministic", name)
		case *ast.SendStmt:
			p.Reportf(n.Pos(), "silod:pure function %s sends on a channel", name)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				p.Reportf(n.Pos(), "silod:pure function %s receives from a channel", name)
			}
		case *ast.Ident:
			v, ok := p.Info.Uses[n].(*types.Var)
			if !ok {
				break
			}
			if timeParams[v] && !forwarded[n] {
				p.Reportf(n.Pos(), "silod:pure function %s reads wall-clock parameter %s: the result may not depend on the current time (see Gavel's finish-time path for why that disqualifies a policy)", name, v.Name())
			} else if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				p.Reportf(n.Pos(), "silod:pure function %s touches package-level variable %s: mutable package state breaks referential transparency", name, v.Name())
			}
		}
		return true
	})
}

// finishPureCheck judges the static callees of every pure function and
// the silod:pure-requires markers once every package's annotations are
// known. Builtins, conversions and calls through func values never
// reach fnInfo.calls; address-taken references are not calls.
func finishPureCheck(p *Pass) {
	st, ok := p.Shared[callgraphKey].(*cgState)
	if !ok {
		return
	}
	st.finalize()
	isPure := func(fn *types.Func) bool {
		n := st.byFunc[fn]
		return n != nil && n.info.pure
	}
	for _, n := range st.nodes {
		fi := n.info
		for _, r := range fi.requires {
			pkg := fi.fn.Pkg()
			if fn := resolveFuncName(pkg, r); fn == nil {
				p.Reportf(fi.decl.Pos(), "silod:pure-requires names %s, which does not resolve in package %s", r, pkg.Name())
			} else if !isPure(fn) {
				p.Reportf(fi.decl.Pos(), "silod:pure-requires: %s is not annotated // silod:pure, so the PureAssign eligibility it vouches for no longer holds", r)
			}
		}
		if !fi.pure {
			continue
		}
		for _, c := range fi.calls {
			if c.callee == nil || c.ref || isPure(c.callee) {
				continue
			}
			pkg := c.callee.Pkg()
			if pkg == nil {
				continue // universe scope (error.Error)
			}
			path := pkg.Path()
			if _, analyzed := st.pkgs[path]; analyzed {
				p.Reportf(c.pos, "silod:pure function %s calls %s.%s, which is not annotated // silod:pure", fi.fn.Name(), pkg.Name(), c.callee.Name())
				continue
			}
			if pureStdlibPkgs[path] || (path == "fmt" && pureFmtFuncs[c.callee.Name()]) {
				continue
			}
			hint := ""
			switch {
			case path == "time":
				hint = " (reads the wall clock)"
			case strings.HasPrefix(path, "math/rand"):
				hint = " (draws global randomness)"
			}
			p.Reportf(c.pos, "silod:pure function %s calls %s.%s%s, which is outside the pure-stdlib allowlist", fi.fn.Name(), path, c.callee.Name(), hint)
		}
	}
}

// resolveFuncName resolves "F", "T.M", or "(*T).M" in pkg's scope.
func resolveFuncName(pkg *types.Package, name string) *types.Func {
	// "(*T).M" and "T.M" name the same declared method; the pointer
	// spelling is documentation for the reader, not the resolver.
	name = strings.ReplaceAll(strings.ReplaceAll(name, "(*", ""), ")", "")
	if i := strings.Index(name, "."); i >= 0 {
		typeName, methName := name[:i], name[i+1:]
		obj, ok := pkg.Scope().Lookup(typeName).(*types.TypeName)
		if !ok {
			return nil
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			return nil
		}
		for m := 0; m < named.NumMethods(); m++ {
			if named.Method(m).Name() == methName {
				return named.Method(m)
			}
		}
		return nil
	}
	fn, _ := pkg.Scope().Lookup(name).(*types.Func)
	return fn
}
