package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the whole-program half of the engine: a cross-package
// view of the module's declared functions, their calls and their taint
// flows. summary.go builds the per-package fragments from the AST — the
// one place per-function facts are computed — and three analyzers read
// them: maporder and purecheck per package in Run, inputflow and
// purecheck over the finalized state through the driver's Finish hooks.
//
// Determinism contract: fragments are keyed by import path and
// finalized in sorted-path order, nodes keep declaration order within a
// package, and flows keep source order within a function. Every
// iteration below is over one of those orders (never over a raw map),
// so the computed summaries do not depend on map iteration order.
//
// Soundness gaps, accepted and documented (docs/static-analysis.md):
// calls through plain func-typed values are not resolved, and function
// literals bound in package-level variable initializers are not
// attributed to any function. Interface dispatch IS resolved, but only
// against the module's own concrete types.

const callgraphKey = "callgraph"

// sinkKind is a bitmask of the dangerous positions inputflow tracks an
// untrusted value into.
type sinkKind uint32

const (
	sinkAllocSize  sinkKind = 1 << iota // make() length or capacity
	sinkIndex                           // slice/array index expression
	sinkLoopBound                       // for-loop condition
	sinkQuotaArith                      // compound assignment into a struct field

	numSinks = 4
)

var sinkNames = [numSinks]string{
	"allocation size", "slice index", "loop bound", "quota arithmetic",
}

// String renders a sink mask as a comma-separated list.
func (s sinkKind) String() string {
	var parts []string
	for i := 0; i < numSinks; i++ {
		if s&(1<<i) != 0 {
			parts = append(parts, sinkNames[i])
		}
	}
	return strings.Join(parts, ", ")
}

// cgCall is one call recorded in source order: a static call (callee
// set) or a dynamic call through an interface method (method set; iface
// names the receiver's interface type, nil when it is unnamed).
type cgCall struct {
	callee *types.Func
	iface  *types.TypeName
	method string
	pos    token.Pos
}

// cgFlow records one observation of a tracked value reaching a sink or
// a call argument. The origin is a parameter (param >= 0), a value of a
// module-declared named struct type (utype != nil), or both; finalize
// decides which role matters once the untrusted annotations from every
// package are known. Exactly one target group is set: sink, callee, or
// iface.
type cgFlow struct {
	param int             // origin parameter index, -1 if not parameter-derived
	utype *types.TypeName // origin named struct type, nil otherwise
	field string          // field read off the struct origin ("" = whole value)
	root  types.Object    // the local/param object the flow was observed through
	pos   token.Pos

	sink        sinkKind
	callee      *types.Func
	calleeParam int
	iface       *types.TypeName
	method      string
}

// cgGate is a call that passes a tracked struct value to a function; if
// that function turns out to be a // silod:validator, every later flow
// from the same root in the same function is considered sanitized.
type cgGate struct {
	root   types.Object
	callee *types.Func
	pos    token.Pos
}

// cgBadAnn is an annotation grammar error, reported by the owning
// analyzer's Run so diagnostics stay attributed correctly.
type cgBadAnn struct {
	owner string // analyzer name that reports it
	pos   token.Pos
	msg   string
}

// orderSink is one map-order sink site: maporder's finding, and
// purecheck's inside a silod:pure function.
type orderSink struct {
	pos token.Pos
	msg string
}

// fnInfo is the per-function summary fragment built by summary.go.
type fnInfo struct {
	fn    *types.Func
	decl  *ast.FuncDecl
	calls []cgCall
	flows []cgFlow
	gates []cgGate
	order []orderSink // maporder's sinks, source order

	pure     bool            // // silod:pure
	assume   map[string]bool // its assume= interfaces
	requires []string        // // silod:pure-requires names
}

// cgFragment is one package's contribution to the whole-program state.
type cgFragment struct {
	fns        []*fnInfo // declaration order
	concretes  []*types.TypeName
	untrusted  []*types.TypeName
	validators map[*types.Func]bool
	bad        []cgBadAnn
	initOrder  []orderSink // map-order sinks in package-level var initializers
}

// cgNode is one finalized call-graph node.
type cgNode struct {
	info       *fnInfo
	paramSinks []sinkKind // per-parameter transitive sink mask
}

// cgState is the shared whole-program record behind Pass.Shared.
type cgState struct {
	pkgs map[string]*cgFragment

	// Populated by finalize.
	finalized  bool
	nodes      []*cgNode // sorted package path, then declaration order
	byFunc     map[*types.Func]*cgNode
	untrusted  map[*types.TypeName]bool
	validators map[*types.Func]bool
	concretes  []*types.TypeName
}

func cgStateIn(shared map[string]any) *cgState {
	if st, ok := shared[callgraphKey].(*cgState); ok {
		return st
	}
	st := &cgState{pkgs: make(map[string]*cgFragment)}
	shared[callgraphKey] = st
	return st
}

// ensureCGFragment builds (once) the fragment for the pass's package and
// reports the annotation errors owned by the pass's analyzer. Every
// graph-backed analyzer calls it from Run; the first invocation in the
// package's analyzer sequence does the work.
func ensureCGFragment(p *Pass) *cgFragment {
	st := cgStateIn(p.Shared)
	f, ok := st.pkgs[p.Path]
	if !ok {
		f = buildCGFragment(p)
		st.pkgs[p.Path] = f
	}
	for _, ba := range f.bad {
		if ba.owner == p.Analyzer.Name {
			p.Reportf(ba.pos, "%s", ba.msg)
		}
	}
	return f
}

// runCallGraph is the Run hook of the analyzers that judge only the
// finalized graph.
func runCallGraph(p *Pass) { ensureCGFragment(p) }

// finalize joins the fragments and computes the parameter→sink
// summaries. It is idempotent: the first Finish hook pays the cost and
// the others reuse the result.
func (st *cgState) finalize() {
	if st.finalized {
		return
	}
	st.finalized = true

	paths := make([]string, 0, len(st.pkgs))
	for path := range st.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	st.byFunc = make(map[*types.Func]*cgNode)
	st.untrusted = make(map[*types.TypeName]bool)
	st.validators = make(map[*types.Func]bool)
	for _, path := range paths {
		f := st.pkgs[path]
		for _, fi := range f.fns {
			n := &cgNode{info: fi}
			if sig, ok := fi.fn.Type().(*types.Signature); ok {
				n.paramSinks = make([]sinkKind, sig.Params().Len())
			}
			st.nodes = append(st.nodes, n)
			st.byFunc[fi.fn] = n
		}
		for _, t := range f.untrusted {
			st.untrusted[t] = true
		}
		for fn := range f.validators {
			st.validators[fn] = true
		}
		st.concretes = append(st.concretes, f.concretes...)
	}
	st.closeParamSinks()
}

// resolveIface returns the nodes of every module method that can be the
// dynamic target of iface.method. Unnamed interfaces and the universe's
// error resolve to nothing.
func (st *cgState) resolveIface(iface *types.TypeName, method string) []*cgNode {
	if iface == nil || iface.Pkg() == nil {
		return nil
	}
	it, ok := iface.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*cgNode
	for _, tn := range st.concretes {
		t := tn.Type()
		impl := types.Implements(t, it)
		if !impl && !types.Implements(types.NewPointer(t), it) {
			continue
		}
		recv := t
		if !impl {
			recv = types.NewPointer(t)
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, tn.Pkg(), method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n, ok := st.byFunc[fn]; ok {
			out = append(out, n)
		}
	}
	return out
}

// closeParamSinks computes the transitive parameter→sink masks. Masks
// only grow, so iterating every node until nothing changes reaches the
// least fixpoint whatever the order: recursion needs no special case.
func (st *cgState) closeParamSinks() {
	for changed := true; changed; {
		changed = false
		for _, n := range st.nodes {
			for i := range n.info.flows {
				f := &n.info.flows[i]
				if f.param < 0 || (f.utype != nil && st.untrusted[f.utype]) {
					// Values of annotated request types report at their own
					// read site (inputflow Finish), not through the caller's
					// parameter summary — one finding per violation.
					continue
				}
				if st.gateSuppressed(n.info, f) {
					continue
				}
				mask := st.flowSinks(f)
				if mask&^n.paramSinks[f.param] != 0 {
					n.paramSinks[f.param] |= mask
					changed = true
				}
			}
		}
	}
}

// flowSinks resolves the sink mask one flow record reaches: directly,
// through a callee parameter summary, or through every implementation
// of an interface method.
func (st *cgState) flowSinks(f *cgFlow) sinkKind {
	if f.sink != 0 {
		return f.sink
	}
	if f.callee != nil {
		if to, ok := st.byFunc[f.callee]; ok && f.calleeParam < len(to.paramSinks) {
			return to.paramSinks[f.calleeParam]
		}
		return 0
	}
	// Interface-forwarded flows: union over the resolved targets.
	var mask sinkKind
	for _, to := range st.resolveIface(f.iface, f.method) {
		if f.calleeParam < len(to.paramSinks) {
			mask |= to.paramSinks[f.calleeParam]
		}
	}
	return mask
}

// gateSuppressed reports whether a flow from a struct root happens
// after the root was passed to a // silod:validator function.
func (st *cgState) gateSuppressed(fi *fnInfo, f *cgFlow) bool {
	if f.root == nil {
		return false
	}
	for _, g := range fi.gates {
		if g.root == f.root && g.pos < f.pos && st.validators[g.callee] {
			return true
		}
	}
	return false
}
