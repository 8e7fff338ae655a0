package lint

import (
	"fmt"
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
//   - map-iteration order reaching an order-sensitive sink (the
//     valueflow walker shared with maporder);
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
	Merge:  mergePureCheck,
	Finish: finishPureCheck,
}

const purecheckKey = "purecheck"

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

type pureAnn struct {
	pure   bool
	assume map[string]bool // interface type names exempted from the call rule
}

// pcCall is one call edge out of a pure function, resolved at Finish
// once every package's annotations are known.
type pcCall struct {
	caller *types.Func
	callee *types.Func
	pos    token.Pos
}

// pcRequire is one silod:pure-requires entry, resolved in its own
// package at Finish.
type pcRequire struct {
	name string
	pkg  *types.Package
	pos  token.Pos
}

// pcState is the cross-package record, shared through Pass.Shared.
type pcState struct {
	pure  map[*types.Func]bool
	calls []pcCall
	reqs  []pcRequire
	pkgs  map[string]bool // import paths analyzed this run
}

func pcStateIn(shared map[string]any) *pcState {
	if st, ok := shared[purecheckKey].(*pcState); ok {
		return st
	}
	st := &pcState{pure: make(map[*types.Func]bool), pkgs: make(map[string]bool)}
	shared[purecheckKey] = st
	return st
}

func mergePureCheck(global, pkg map[string]any) {
	src, ok := pkg[purecheckKey].(*pcState)
	if !ok {
		return
	}
	dst := pcStateIn(global)
	for fn := range src.pure {
		dst.pure[fn] = true
	}
	dst.calls = append(dst.calls, src.calls...)
	dst.reqs = append(dst.reqs, src.reqs...)
	for path := range src.pkgs {
		dst.pkgs[path] = true
	}
}

// parsePureDoc extracts the annotation lines from a doc comment.
func parsePureDoc(doc *ast.CommentGroup) (ann pureAnn, requires []string, badOpts []string) {
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
			ann.pure = true
			for _, field := range strings.Fields(strings.TrimPrefix(text, "silod:pure")) {
				v, ok := strings.CutPrefix(field, "assume=")
				if !ok {
					badOpts = append(badOpts, field)
					continue
				}
				if ann.assume == nil {
					ann.assume = make(map[string]bool)
				}
				for _, n := range strings.Split(v, ",") {
					if n = strings.TrimSpace(n); n != "" {
						ann.assume[n] = true
					}
				}
			}
		}
	}
	return
}

func runPureCheck(p *Pass) {
	st := pcStateIn(p.Shared)
	st.pkgs[p.Path] = true
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ann, requires, badOpts := parsePureDoc(fd.Doc)
			for _, opt := range badOpts {
				p.Reportf(fd.Pos(), "unrecognized silod:pure option %q (grammar: // silod:pure [assume=Iface,...])", opt)
			}
			for _, name := range requires {
				st.reqs = append(st.reqs, pcRequire{name: name, pkg: p.Pkg, pos: fd.Pos()})
			}
			if !ann.pure {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			st.pure[fn] = true
			if fd.Body != nil {
				checkPureBody(p, st, fn, fd, ann)
			}
		}
	}
}

// checkPureBody runs the intraprocedural rules over one annotated
// function, recording call edges for Finish.
func checkPureBody(p *Pass, st *pcState, fn *types.Func, fd *ast.FuncDecl, ann pureAnn) {
	// A unit.Time parameter is the caller's clock: a pure assignment may
	// receive one (core.Policy.Assign has it in the signature) but must
	// not let it influence the result.
	timeParams := make(map[types.Object]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := p.Info.Defs[name]
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
			p.Reportf(n.Pos(), "silod:pure function %s starts a goroutine: goroutine scheduling is nondeterministic", fn.Name())
		case *ast.SendStmt:
			p.Reportf(n.Pos(), "silod:pure function %s sends on a channel", fn.Name())
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				p.Reportf(n.Pos(), "silod:pure function %s receives from a channel", fn.Name())
			}
		case *ast.Ident:
			v, ok := p.Info.Uses[n].(*types.Var)
			if !ok {
				break
			}
			if timeParams[v] && !forwarded[n] {
				p.Reportf(n.Pos(), "silod:pure function %s reads wall-clock parameter %s: the result may not depend on the current time (see Gavel's finish-time path for why that disqualifies a policy)", fn.Name(), v.Name())
			} else if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				p.Reportf(n.Pos(), "silod:pure function %s touches package-level variable %s: mutable package state breaks referential transparency", fn.Name(), v.Name())
			}
		case *ast.CallExpr:
			checkPureCall(p, st, fn, ann, n)
		}
		return true
	})
	pureFlowReport := func(pos token.Pos, format string, args ...any) {
		p.Reportf(pos, "silod:pure function %s: %s", fn.Name(), fmt.Sprintf(format, args...))
	}
	checkMapOrderFlow(p, fd.Body, pureFlowReport)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			checkMapOrderFlow(p, fl.Body, pureFlowReport)
		}
		return true
	})
}

// checkPureCall classifies one call site: builtins and conversions are
// value rewrites; interface calls must be assumed; everything concrete
// is recorded and judged at Finish when all annotations are known.
func checkPureCall(p *Pass, st *pcState, caller *types.Func, ann pureAnn, call *ast.CallExpr) {
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	record := func(callee *types.Func) {
		st.calls = append(st.calls, pcCall{caller: caller, callee: callee, pos: call.Pos()})
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := p.Info.Uses[fun].(type) {
		case *types.Builtin:
			return
		case *types.Func:
			record(obj)
		}
		// A call through a func-typed variable: accepted soundness gap —
		// the repo's pure paths only build such values from local
		// closures, which this walk already inspects.
		return
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if _, isPkg := pkgNameOf(p.Info, id); isPkg {
				if fnObj, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
					record(fnObj)
				}
				return
			}
		}
		sel, ok := p.Info.Selections[fun]
		if !ok {
			// Method expression (T.M): resolves like a plain function.
			if fnObj, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
				record(fnObj)
			}
			return
		}
		fnObj, ok := sel.Obj().(*types.Func)
		if !ok {
			return // func-typed field value: same gap as above
		}
		if sig, ok := fnObj.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				name := ifaceRecvName(sel.Recv())
				if !ann.assume[name] {
					p.Reportf(call.Pos(), "silod:pure function %s calls %s.%s through an interface the checker cannot resolve; if every runtime implementation is vetted pure (see internal/policy/pure.go), annotate // silod:pure assume=%s", caller.Name(), name, fnObj.Name(), name)
				}
				return
			}
		}
		record(fnObj)
	}
}

// ifaceRecvName names the interface type a method call goes through.
func ifaceRecvName(recv types.Type) string {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if n, ok := recv.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "interface"
}

func finishPureCheck(p *Pass) {
	st, ok := p.Shared[purecheckKey].(*pcState)
	if !ok {
		return
	}
	for _, c := range st.calls {
		if st.pure[c.callee] {
			continue
		}
		pkg := c.callee.Pkg()
		if pkg == nil {
			continue // universe scope (error.Error)
		}
		path := pkg.Path()
		if st.pkgs[path] {
			p.Reportf(c.pos, "silod:pure function %s calls %s.%s, which is not annotated // silod:pure", c.caller.Name(), pkg.Name(), c.callee.Name())
			continue
		}
		if pureStdlibPkgs[path] {
			continue
		}
		if path == "fmt" && pureFmtFuncs[c.callee.Name()] {
			continue
		}
		hint := ""
		switch {
		case path == "time":
			hint = " (reads the wall clock)"
		case strings.HasPrefix(path, "math/rand"):
			hint = " (draws global randomness)"
		}
		p.Reportf(c.pos, "silod:pure function %s calls %s.%s%s, which is outside the pure-stdlib allowlist", c.caller.Name(), path, c.callee.Name(), hint)
	}
	for _, r := range st.reqs {
		fn := resolveFuncName(r.pkg, r.name)
		if fn == nil {
			p.Reportf(r.pos, "silod:pure-requires names %s, which does not resolve in package %s", r.name, r.pkg.Name())
			continue
		}
		if !st.pure[fn] {
			p.Reportf(r.pos, "silod:pure-requires: %s is not annotated // silod:pure, so the PureAssign eligibility it vouches for no longer holds", r.name)
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
