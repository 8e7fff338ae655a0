package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"math/bits"
	"sort"
	"strings"
)

// This file is the whole-program half of the v4 engine: a cross-package
// call graph over the module's declared functions, condensed with
// Tarjan's SCC algorithm so recursion is handled exactly, and walked
// bottom-up (reverse topological order) to compute per-function effect
// and taint summaries. summary.go builds the per-package fragments from
// the AST — the one place per-function facts are computed — and five
// analyzers read them: maporder and purecheck per package in Run,
// detclose, inputflow, lockorder and purecheck over the finalized state
// through the driver's Finish hooks.
//
// Determinism contract: fragments are keyed by import path and
// finalized in sorted-path order, nodes keep declaration order within a
// package, and edges keep source order within a function. Every
// iteration below is over one of those orders (never over a raw map),
// so the computed summaries — and the BFS call paths printed by -why —
// do not depend on map iteration order.
//
// Soundness gaps, accepted and documented (docs/static-analysis.md):
// calls through plain func-typed values are not resolved — that is the
// clock/RNG *injection idiom* (a root that takes func() time.Time is
// exactly how an effect is supposed to cross the boundary) — and
// function literals bound in package-level variable initializers are
// not attributed to any function. Interface dispatch IS resolved, but
// only against the module's own concrete types.

const callgraphKey = "callgraph"

// effect is a bitmask of the ambient effects detclose proves
// unreachable from simulation roots, directly or transitively.
type effect uint32

const (
	effWallclock effect = 1 << iota // reads or blocks on the machine clock
	effGlobalRNG                    // draws from the process-global math/rand state
	effMapOrder                     // has a maporder sink: a result depends on map-iteration order

	numEffects = 3
)

var effectNames = [numEffects]string{"wallclock", "rng", "maporder"}

var effectDescs = [numEffects]string{
	"wall-clock read", "global-RNG draw", "map-order-dependent emission",
}

// desc names a single-bit effect for diagnostics.
func (e effect) desc() string {
	return effectDescs[bits.TrailingZeros32(uint32(e))]
}

// effectByName parses one silod:inject operand.
func effectByName(name string) (effect, bool) {
	for i, n := range effectNames {
		if n == name {
			return 1 << i, true
		}
	}
	return 0, false
}

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

// cgWitness is the first syntactic site of one direct effect inside a
// function: the terminal hop of a -why trace.
type cgWitness struct {
	what string // e.g. "time.Now", "math/rand.Intn", "float accumulation into total"
	pos  token.Pos
}

// cgCall is one outgoing reference recorded in source order: a static
// call or an address-taken function value (callee set), or a dynamic
// call through an interface method (method set; iface names the
// receiver's interface type, nil when it is unnamed). Address-taken
// references are edges for the effect closure but not calls: purecheck
// and lockorder skip them.
type cgCall struct {
	callee *types.Func
	iface  *types.TypeName
	method string
	ref    bool
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

// orderSink is one map-order sink site: maporder's finding, purecheck's
// inside a silod:pure function, and a witness of effMapOrder.
type orderSink struct {
	pos token.Pos
	msg string
}

// lockSite is one lock event lockorder needs from a function body: an
// acquisition of lock (a type-level lock identity), or, when lock is
// empty, a call made while locks were held. held lists the locks held
// just before, sorted by instance path.
type lockSite struct {
	lock string
	held []string
	pos  token.Pos
}

// fnInfo is the per-function summary fragment built by summary.go.
type fnInfo struct {
	fn      *types.Func
	decl    *ast.FuncDecl
	direct  effect
	witness map[effect]cgWitness // first site per direct-effect bit
	root    bool                 // // silod:sim-root
	inject  effect               // // silod:inject mask
	calls   []cgCall
	flows   []cgFlow
	gates   []cgGate
	order   []orderSink // maporder's sinks, source order
	locks   []lockSite  // lock-flow events, walk order

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
	id         int      // index in cgState.nodes
	edges      []cgEdge // static + resolved interface edges, source order
	eff        effect   // transitive effects, injection masks applied
	scc        int
	paramSinks []sinkKind // per-parameter transitive sink mask
}

type cgEdge struct {
	to  *cgNode
	pos token.Pos
	ref bool // address-taken reference, not a call
}

// cgState is the shared whole-program record behind Pass.Shared.
type cgState struct {
	pkgs map[string]*cgFragment

	// Populated by finalize.
	finalized  bool
	nodes      []*cgNode   // sorted package path, then declaration order
	sccs       [][]*cgNode // callees before callers
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

// finalize condenses the graph and computes summaries bottom-up. It is
// idempotent: the first Finish hook pays the cost and the others reuse
// the result.
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
			n := &cgNode{info: fi, id: len(st.nodes)}
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

	// Resolve edges: static calls keep their callee if it is a module
	// function (has a node); interface calls fan out to every module
	// concrete type implementing the interface, in collection order
	// (sorted package path, then declaration order — deterministic).
	for _, n := range st.nodes {
		for _, c := range n.info.calls {
			if c.callee != nil {
				if to, ok := st.byFunc[c.callee]; ok {
					n.edges = append(n.edges, cgEdge{to: to, pos: c.pos, ref: c.ref})
				}
				continue
			}
			for _, to := range st.resolveIface(c.iface, c.method) {
				n.edges = append(n.edges, cgEdge{to: to, pos: c.pos})
			}
		}
	}

	succ := make([][]int, len(st.nodes))
	for i, n := range st.nodes {
		for _, e := range n.edges {
			succ[i] = append(succ[i], e.to.id)
		}
	}
	for _, comp := range tarjan(succ) {
		scc := make([]*cgNode, len(comp))
		for i, v := range comp {
			scc[i] = st.nodes[v]
			scc[i].scc = len(st.sccs)
		}
		st.sccs = append(st.sccs, scc)
	}

	// Tarjan emits each SCC only after every SCC reachable from it, so
	// walking the emission order is the bottom-up (reverse topological)
	// summary pass: callee summaries outside the current SCC are final.
	for _, scc := range st.sccs {
		var union effect
		for _, n := range scc {
			union |= n.info.direct
			for _, e := range n.edges {
				if e.to.scc != n.scc {
					union |= e.to.eff
				}
			}
		}
		for _, n := range scc {
			n.eff = union &^ n.info.inject
		}
		st.closeParamSinks(scc)
	}
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

// tarjan returns the strongly connected components of the graph whose
// node v has successors succ[v], in emission order: every component
// comes after all components reachable from it (reverse topological
// order of the condensation — callees before callers). It is iterative,
// tries roots in index order and successors in slice order, so the
// result is a function of succ alone.
func tarjan(succ [][]int) [][]int {
	index := make([]int, len(succ)) // visit order + 1; 0 = unvisited
	low := make([]int, len(succ))
	onStack := make([]bool, len(succ))
	var stack []int
	var sccs [][]int
	next := 1

	type frame struct{ v, edge int }
	var work []frame
	for start := range succ {
		if index[start] != 0 {
			continue
		}
		work = append(work, frame{v: start})
		for len(work) > 0 {
			fr := &work[len(work)-1]
			v := fr.v
			if fr.edge == 0 {
				index[v], low[v] = next, next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for fr.edge < len(succ[v]) {
				w := succ[v][fr.edge]
				fr.edge++
				if index[w] == 0 {
					work = append(work, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var scc []int
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					scc = append(scc, m)
					if m == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				if parent := work[len(work)-1].v; low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return sccs
}

// closeParamSinks computes the transitive parameter→sink masks for one
// SCC; intra-SCC call cycles converge through the inner fixpoint.
func (st *cgState) closeParamSinks(scc []*cgNode) {
	for changed := true; changed; {
		changed = false
		for _, n := range scc {
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

// tracePath finds the shortest call path (BFS, deterministic edge
// order) from a root node to a function with the direct effect e, and
// renders it as Diagnostic trace entries: each hop is a call site, the
// final entry is the effect's witness site.
func (st *cgState) tracePath(fset *token.FileSet, root *cgNode, e effect) []TraceEntry {
	type hop struct {
		n    *cgNode
		from *hop
		pos  token.Pos // call site that reached n
	}
	seen := map[*cgNode]bool{root: true}
	queue := []*hop{{n: root}}
	var terminal *hop
	for len(queue) > 0 && terminal == nil {
		h := queue[0]
		queue = queue[1:]
		if h.n.info.direct&e != 0 && h.n.info.inject&e == 0 {
			terminal = h
			break
		}
		for _, edge := range h.n.edges {
			if seen[edge.to] || edge.to.eff&e == 0 {
				continue
			}
			seen[edge.to] = true
			queue = append(queue, &hop{n: edge.to, from: h, pos: edge.pos})
		}
	}
	if terminal == nil {
		return nil
	}
	var hops []*hop
	for h := terminal; h != nil; h = h.from {
		hops = append(hops, h)
	}
	var trace []TraceEntry
	for i := len(hops) - 1; i >= 0; i-- {
		h := hops[i]
		if h.from == nil {
			trace = append(trace, TraceEntry{
				Call: "root " + h.n.info.fn.FullName(),
				Pos:  fset.Position(h.n.info.decl.Pos()),
			})
			continue
		}
		trace = append(trace, TraceEntry{
			Call: "calls " + h.n.info.fn.FullName(),
			Pos:  fset.Position(h.pos),
		})
	}
	w := terminal.n.info.witness[e]
	trace = append(trace, TraceEntry{Call: w.what, Pos: fset.Position(w.pos)})
	return trace
}
