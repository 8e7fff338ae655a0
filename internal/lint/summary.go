package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// This file builds the per-package call-graph fragments consumed by
// callgraph.go: one fnInfo per declared function, recording outgoing
// calls, taint flow observations for inputflow, map-order sinks for
// maporder, and the silod:pure annotations purecheck judges. All AST
// work happens here, in the per-package Run phase; finalize only joins
// fragments and closes the parameter summaries.
//
// Annotation grammar (doc comments; see docs/static-analysis.md):
//
//	// silod:validator              — passing a request value here
//	//                                sanitizes all its fields below the
//	//                                call site
//	// silod:untrusted              — (on a struct type) values decode
//	//                                from external input; field reads
//	//                                are taint sources
//
// plus purecheck's silod:pure and silod:pure-requires (purecheck.go).
//
// Taint model: every parameter and every local of a module-declared
// named struct type is tracked. Reading a field of a tracked struct
// value yields a provenance (root object, field path); assignments
// propagate provenances in source order. A flow into a sink (make size,
// slice index, loop bound, compound assignment into a struct field) or
// a call argument is recorded unless an earlier if-guard over the same
// (root, field) returns/branches out — the repo's inline-validation
// idiom — or the root already passed through a silod:validator.
//
// Map order is one more provenance on the same taint map. A range over
// a map gives its key and value the loop as provenance: their sequence
// is randomized per process, even though their set is not. The
// provenance is live only inside that loop's body, and only in the
// function that owns the loop (a function literal is its own function),
// so a loop's taint never leaks into code that runs in a fixed order.
// While live it propagates through assignments (to the root of the
// assigned expression, fields and slots included), through appends,
// and through nested ranges over tainted collections, and it fires one
// of four sinks:
//
//	float accumulation   acc op= tainted, acc float-typed (incl. unit
//	                     types) and declared outside the loop
//	append escape        s = append(s, tainted...), s declared outside
//	                     the loop and never sorted in the function
//	emission             fmt.Print*/Fprint*, Reportf or Encode taking a
//	                     tainted argument
//	metric interning     Registry.Counter/Gauge/Histogram in the loop
//
// Integer and boolean accumulation is order-independent and never a
// sink; neither is a compound update through a tainted index
// (out[id] -= tax updates a distinct slot per key), nor a range over an
// already-sorted key slice (a slice range is not a source).

// cgProv is one provenance a tracked value carries.
type cgProv struct {
	param int             // parameter index, -1 if not parameter-derived
	utype *types.TypeName // named struct type of the origin, nil otherwise
	field string          // field path read off the origin ("" = whole value)
	root  types.Object    // origin object, the sanitization key
	loop  *ast.RangeStmt  // map-range loop whose visit order the value carries (maporder)
}

type provKey struct {
	root  types.Object
	field string
}

// parseCGFuncDoc extracts the call-graph annotation from a function
// doc comment. Grammar errors come back as (owner, message) pairs so
// the analyzer that owns the annotation reports them.
func parseCGFuncDoc(doc *ast.CommentGroup) (validator bool, bad []cgBadAnn) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		switch {
		case text == "silod:validator":
			validator = true
		case strings.HasPrefix(text, "silod:validator"):
			bad = append(bad, cgBadAnn{owner: "inputflow", pos: c.Pos(),
				msg: "silod:validator takes no operands (grammar: // silod:validator)"})
		}
	}
	return
}

// typeSpecDoc returns the doc comment of a type spec, falling back to
// the enclosing single-spec GenDecl's doc (the common `type T struct`
// spelling).
func typeSpecDoc(decl *ast.GenDecl, spec *ast.TypeSpec) *ast.CommentGroup {
	if spec.Doc != nil {
		return spec.Doc
	}
	if len(decl.Specs) == 1 {
		return decl.Doc
	}
	return nil
}

// docHasMarker reports whether a doc comment contains the given
// standalone silod: marker line.
func docHasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
			return true
		}
	}
	return false
}

// buildCGFragment summarizes one package. Called once per package by
// whichever graph-backed analyzer runs first (via ensureCGFragment).
func buildCGFragment(p *Pass) *cgFragment {
	f := &cgFragment{validators: make(map[*types.Func]bool)}
	if p.Pkg != nil {
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, isIface := tn.Type().Underlying().(*types.Interface); !isIface {
				f.concretes = append(f.concretes, tn)
			}
		}
	}
	// Literals in package-level var initializers belong to no function;
	// they are walked for their map-order sinks only.
	initW := newSumWalker(p, &fnInfo{}, nil)
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					ast.Inspect(d, func(n ast.Node) bool {
						if lit, ok := n.(*ast.FuncLit); ok {
							initW.visit(lit)
							return false
						}
						return true
					})
				}
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !docHasMarker(typeSpecDoc(d, ts), "silod:untrusted") {
						continue
					}
					tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					if _, isStruct := tn.Type().Underlying().(*types.Struct); !isStruct {
						f.bad = append(f.bad, cgBadAnn{owner: "inputflow", pos: ts.Pos(),
							msg: fmt.Sprintf("silod:untrusted applies to struct types; %s is not a struct", ts.Name.Name)})
						continue
					}
					f.untrusted = append(f.untrusted, tn)
				}
			case *ast.FuncDecl:
				if fi := summarizeFunc(p, f, d); fi != nil {
					f.fns = append(f.fns, fi)
				}
			}
		}
	}
	f.initOrder = initW.fi.order
	return f
}

// summarizeFunc builds one declaration's fnInfo, filing its annotation
// errors and validator mark on the fragment.
func summarizeFunc(p *Pass, f *cgFragment, d *ast.FuncDecl) *fnInfo {
	fn, ok := p.Info.Defs[d.Name].(*types.Func)
	if !ok {
		return nil
	}
	validator, bad := parseCGFuncDoc(d.Doc)
	pure, assume, requires, badOpts := parsePureDoc(d.Doc)
	for _, opt := range badOpts {
		bad = append(bad, cgBadAnn{owner: "purecheck",
			msg: fmt.Sprintf("unrecognized silod:pure option %q (grammar: // silod:pure [assume=Iface,...])", opt)})
	}
	for _, b := range bad {
		b.pos = d.Pos() // report at the declaration
		f.bad = append(f.bad, b)
	}
	if validator {
		f.validators[fn] = true
	}
	fi := &fnInfo{
		fn:       fn,
		decl:     d,
		pure:     pure,
		assume:   assume,
		requires: requires,
	}
	if d.Body == nil {
		return fi
	}
	w := newSumWalker(p, fi, d.Body)
	w.seedParams(d)
	ast.Inspect(d.Body, w.visit)
	return fi
}

// sumWalker carries the state of one function's summary walk.
type sumWalker struct {
	p      *Pass
	fi     *fnInfo
	fnBody *ast.BlockStmt   // innermost enclosing function body, for the sort-after-loop probe
	loops  []*ast.RangeStmt // map-range loops around the current node, in fnBody
	taint  map[types.Object][]cgProv
	san    map[provKey]bool
}

func newSumWalker(p *Pass, fi *fnInfo, body *ast.BlockStmt) *sumWalker {
	return &sumWalker{
		p:      p,
		fi:     fi,
		fnBody: body,
		taint:  make(map[types.Object][]cgProv),
		san:    make(map[provKey]bool),
	}
}

// addProv taints obj with pv unless an identical provenance is already
// recorded (keeps repeated assignments from duplicating flow records).
func (w *sumWalker) addProv(obj types.Object, pv cgProv) {
	if obj == nil {
		return
	}
	for _, have := range w.taint[obj] {
		if have == pv {
			return
		}
	}
	w.taint[obj] = append(w.taint[obj], pv)
}

// seedParams taints every declared parameter.
func (w *sumWalker) seedParams(fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			idx++ // unnamed parameter still occupies a position
			continue
		}
		for _, name := range field.Names {
			if obj := w.p.Info.Defs[name]; obj != nil {
				w.addProv(obj, cgProv{
					param: idx,
					utype: namedStructOf(obj.Type()),
					root:  obj,
				})
			}
			idx++
		}
	}
}

// namedStructOf returns the TypeName of a named struct type (through
// one pointer level), or nil.
func namedStructOf(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, isStruct := n.Underlying().(*types.Struct); !isStruct {
		return nil
	}
	return n.Obj()
}

// visit is the ast.Inspect callback of the walk: source order, function
// literals included (their flows and calls belong to the
// enclosing declaration; for map order they are functions of their own).
func (w *sumWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		loops, body := w.loops, w.fnBody
		w.loops, w.fnBody = nil, n.Body
		ast.Inspect(n.Body, w.visit)
		w.loops, w.fnBody = loops, body
		return false
	case *ast.DeclStmt:
		w.declare(n)
	case *ast.AssignStmt:
		w.assign(n)
		w.orderAssign(n)
	case *ast.IfStmt:
		w.guard(n)
	case *ast.ForStmt:
		if n.Cond != nil {
			w.recordSinks(w.mentions(n.Cond), sinkLoopBound, n.Cond.Pos())
		}
	case *ast.RangeStmt:
		if !w.rangeStmt(n) {
			return true
		}
		for _, e := range []ast.Expr{n.Key, n.Value, n.X} {
			if e != nil {
				ast.Inspect(e, w.visit)
			}
		}
		w.loops = append(w.loops, n)
		ast.Inspect(n.Body, w.visit)
		w.loops = w.loops[:len(w.loops)-1]
		return false
	case *ast.IndexExpr:
		w.index(n)
	case *ast.CallExpr:
		w.orderCall(n)
		w.call(n)
	}
	return true
}

// declare seeds taint for `var req T` locals of named struct types.
func (w *sumWalker) declare(ds *ast.DeclStmt) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			w.seedLocal(name)
		}
	}
}

// seedLocal taints a newly declared local if its type is a named
// struct: decode targets are exactly such locals, and whether the type
// is *untrusted* is decided at finalize when every annotation is known.
func (w *sumWalker) seedLocal(id *ast.Ident) {
	obj := w.p.Info.Defs[id]
	if obj == nil {
		return
	}
	tn := namedStructOf(obj.Type())
	if tn == nil {
		return
	}
	w.addProv(obj, cgProv{param: -1, utype: tn, root: obj})
}

// assign handles the quota-arithmetic sink and source-order taint
// propagation.
func (w *sumWalker) assign(as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if _, isField := ast.Unparen(as.Lhs[0]).(*ast.SelectorExpr); isField {
			w.recordSinks(w.mentions(as.Rhs[0]), sinkQuotaArith, as.Pos())
		}
		return
	case token.DEFINE, token.ASSIGN:
	default:
		return
	}
	for i, l := range as.Lhs {
		rhs := assignedFrom(as, i)
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if as.Tok == token.DEFINE {
			w.seedLocal(id)
		}
		if rhs == nil {
			continue
		}
		obj := w.objOf(id)
		if obj == nil {
			continue
		}
		for _, pv := range w.mentions(rhs) {
			w.addProv(obj, pv)
		}
	}
}

// assignedFrom returns the expression the i-th left-hand side of a
// plain or defining assignment takes its value from.
func assignedFrom(as *ast.AssignStmt, i int) ast.Expr {
	switch {
	case len(as.Rhs) == len(as.Lhs):
		return as.Rhs[i]
	case len(as.Rhs) == 1:
		return as.Rhs[0]
	}
	return nil
}

// guard applies the inline-validation idiom: an if whose condition
// mentions tracked provenances and whose body exits the normal flow
// sanitizes those (root, field) pairs for the rest of the walk.
func (w *sumWalker) guard(is *ast.IfStmt) {
	provs := w.mentionsRaw(is.Cond)
	if len(provs) == 0 || !bodyExits(is.Body) {
		return
	}
	for _, pv := range provs {
		w.san[provKey{root: pv.root, field: pv.field}] = true
	}
}

// bodyExits reports whether a block leaves the surrounding control flow
// (return, branch, or panic) — the shape of a validation guard.
func bodyExits(body *ast.BlockStmt) bool {
	exits := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt, *ast.BranchStmt:
			exits = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				exits = true
			}
		}
		return !exits
	})
	return exits
}

// rangeStmt propagates taint to the loop variables — the collection's
// provenances, and for a map range the loop itself — and reports
// whether the loop ranges over a map.
func (w *sumWalker) rangeStmt(rs *ast.RangeStmt) bool {
	provs := w.mentions(rs.X)
	for _, l := range w.orderLoops(rs.X) {
		provs = append(provs, cgProv{param: -1, loop: l})
	}
	isMap := isMapRange(w.p, rs)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := w.p.Info.Defs[id]; obj != nil {
			for _, pv := range provs {
				w.addProv(obj, pv)
			}
		}
		if isMap {
			w.addProv(w.objOf(id), cgProv{param: -1, loop: rs})
		}
	}
	return isMap
}

// isMapRange reports whether rs ranges over a map-typed expression
// (including a call returning a map, e.g. a Keys-style helper that
// forwards iteration order).
func isMapRange(p *Pass, rs *ast.RangeStmt) bool {
	tv, ok := p.Info.Types[rs.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// index fires the slice-index sink; map indexing is safe for any key.
func (w *sumWalker) index(ix *ast.IndexExpr) {
	tv, ok := w.p.Info.Types[ix.X]
	if !ok {
		return
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Pointer:
	case *types.Basic:
		if t.Info()&types.IsString == 0 {
			return
		}
	default:
		return
	}
	w.recordSinks(w.mentions(ix.Index), sinkIndex, ix.Pos())
}

// call records the callee, argument flows, and validator gates
// for one call expression.
func (w *sumWalker) call(call *ast.CallExpr) {
	if tv, ok := w.p.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := w.p.Info.Uses[fun].(type) {
		case *types.Builtin:
			if fun.Name == "make" && len(call.Args) > 1 {
				for _, sz := range call.Args[1:] {
					w.recordSinks(w.mentions(sz), sinkAllocSize, call.Pos())
				}
			}
			return
		case *types.Func:
			w.staticCall(call, obj)
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if _, isPkg := pkgNameOf(w.p.Info, id); isPkg {
				if fnObj, ok := w.p.Info.Uses[fun.Sel].(*types.Func); ok {
					w.staticCall(call, fnObj)
				}
				return
			}
		}
		sel, ok := w.p.Info.Selections[fun]
		if !ok {
			// Method expression T.M: resolves like a plain function.
			if fnObj, ok := w.p.Info.Uses[fun.Sel].(*types.Func); ok {
				w.staticCall(call, fnObj)
			}
			return
		}
		fnObj, ok := sel.Obj().(*types.Func)
		if !ok {
			return // func-typed field: the injection idiom, unresolved
		}
		if sig, ok := fnObj.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				w.ifaceCall(call, sel.Recv(), fnObj)
				return
			}
		}
		w.gateReceiver(fun.X, fnObj, call.Pos())
		w.staticCall(call, fnObj)
	}
}

// staticCall handles a call with a resolved concrete target: the call
// edge, argument flows, and validator gates.
func (w *sumWalker) staticCall(call *ast.CallExpr, fnObj *types.Func) {
	w.fi.calls = append(w.fi.calls, cgCall{callee: fnObj, pos: call.Pos()})
	w.argFlows(call, fnObj, nil, "")
	for _, arg := range call.Args {
		w.gateReceiver(arg, fnObj, call.Pos())
	}
}

// ifaceCall records a dynamic call through an interface method;
// resolution happens at finalize. iface is nil when the receiver's
// type is unnamed.
func (w *sumWalker) ifaceCall(call *ast.CallExpr, recv types.Type, fnObj *types.Func) {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	var iface *types.TypeName
	if named, ok := recv.(*types.Named); ok {
		iface = named.Obj()
	}
	w.fi.calls = append(w.fi.calls, cgCall{iface: iface, method: fnObj.Name(), pos: call.Pos()})
	w.argFlows(call, nil, iface, fnObj.Name())
}

// argFlows records one flow per tracked provenance per argument.
func (w *sumWalker) argFlows(call *ast.CallExpr, callee *types.Func, iface *types.TypeName, method string) {
	var nparams int
	var sig *types.Signature
	if callee != nil {
		sig, _ = callee.Type().(*types.Signature)
	}
	if sig != nil {
		nparams = sig.Params().Len()
	}
	for j, arg := range call.Args {
		provs := w.mentions(arg)
		if len(provs) == 0 {
			continue
		}
		cp := j
		if sig != nil {
			if nparams == 0 {
				continue
			}
			if cp >= nparams {
				cp = nparams - 1 // variadic tail
			}
		}
		for _, pv := range provs {
			w.fi.flows = append(w.fi.flows, cgFlow{
				param: pv.param, utype: pv.utype, field: pv.field, root: pv.root,
				pos: arg.Pos(), callee: callee, calleeParam: cp,
				iface: iface, method: method,
			})
		}
	}
}

// gateReceiver records a validator gate when a whole tracked struct
// value (or its address) is passed to a concrete function.
func (w *sumWalker) gateReceiver(e ast.Expr, callee *types.Func, pos token.Pos) {
	e = ast.Unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ast.Unparen(ue.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	obj := w.objOf(id)
	if obj == nil {
		return
	}
	for _, pv := range w.taint[obj] {
		if pv.utype != nil && pv.field == "" {
			w.fi.gates = append(w.fi.gates, cgGate{root: pv.root, callee: callee, pos: pos})
			return
		}
	}
}

// recordSinks records one flow per unsanitized provenance.
func (w *sumWalker) recordSinks(provs []cgProv, sink sinkKind, pos token.Pos) {
	for _, pv := range provs {
		w.fi.flows = append(w.fi.flows, cgFlow{
			param: pv.param, utype: pv.utype, field: pv.field, root: pv.root,
			pos: pos, sink: sink,
		})
	}
}

// mentions returns the inputflow provenances of the tracked values an
// expression reads, with sanitized (root, field) pairs filtered out.
func (w *sumWalker) mentions(e ast.Expr) []cgProv {
	var out []cgProv
	for _, pv := range w.mentionsRaw(e) {
		if !w.san[provKey{root: pv.root, field: pv.field}] {
			out = append(out, pv)
		}
	}
	return out
}

// mentionsRaw is mentions without the sanitization filter (guards use
// it to know which pairs to sanitize). Map-order provenances are not
// inputflow's and are left out.
func (w *sumWalker) mentionsRaw(e ast.Expr) []cgProv {
	if e == nil {
		return nil
	}
	var out []cgProv
	seen := make(map[*ast.Ident]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		var id *ast.Ident
		field := ""
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id = rootIdent(n); id != nil {
				field = strings.TrimPrefix(exprPath(n), id.Name+".")
			}
		case *ast.Ident:
			id = n
		}
		if id == nil || seen[id] {
			return true
		}
		found := false
		for _, pv := range w.taint[w.objOf(id)] {
			if pv.loop != nil {
				continue
			}
			if pv.field == "" {
				pv.field = field
			}
			out = append(out, pv)
			found = true
		}
		if found {
			seen[id] = true
		}
		return true
	})
	return out
}

func (w *sumWalker) objOf(id *ast.Ident) types.Object {
	if id == nil {
		return nil
	}
	if obj := w.p.Info.Uses[id]; obj != nil {
		return obj
	}
	return w.p.Info.Defs[id]
}

// --- map order ---

// orderLoops returns the live map-range loops whose visit order e
// carries: loops around the current node in the current function.
func (w *sumWalker) orderLoops(e ast.Expr) []*ast.RangeStmt {
	if len(w.loops) == 0 || e == nil {
		return nil
	}
	var out []*ast.RangeStmt
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			for _, pv := range w.taint[w.p.Info.Uses[id]] {
				if pv.loop != nil && slices.Contains(w.loops, pv.loop) && !slices.Contains(out, pv.loop) {
					out = append(out, pv.loop)
				}
			}
		}
		return true
	})
	return out
}

// orderTaint gives the root of lhs (x in x, x.f, x[i]) the order of
// each loop.
func (w *sumWalker) orderTaint(lhs ast.Expr, loops []*ast.RangeStmt) {
	obj := w.objOf(rootIdent(lhs))
	for _, l := range loops {
		w.addProv(obj, cgProv{param: -1, loop: l})
	}
}

// orderSink records one map-order sink; a site is recorded once however
// many loops reach it.
func (w *sumWalker) orderSink(pos token.Pos, format string, args ...any) {
	if n := len(w.fi.order); n > 0 && w.fi.order[n-1].pos == pos {
		return
	}
	w.fi.order = append(w.fi.order, orderSink{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// orderAssign propagates map-order taint through one assignment and
// fires the float-accumulation and append-escape sinks.
func (w *sumWalker) orderAssign(as *ast.AssignStmt) {
	if len(w.loops) == 0 {
		return
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		loops := w.unindexed(as.Lhs[0], w.orderLoops(as.Rhs[0]))
		w.orderTaint(as.Lhs[0], loops)
		w.floatFold(as.Lhs[0], loops, as.Pos())
		return
	case token.DEFINE, token.ASSIGN:
	default:
		return
	}
	// x = x op tainted is accumulation spelled out.
	if as.Tok == token.ASSIGN && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr); ok &&
			(bin.Op == token.ADD || bin.Op == token.SUB || bin.Op == token.MUL || bin.Op == token.QUO) {
			acc := w.objOf(rootIdent(as.Lhs[0]))
			if acc != nil && (w.objOf(rootIdent(bin.X)) == acc || w.objOf(rootIdent(bin.Y)) == acc) {
				w.floatFold(as.Lhs[0], w.unindexed(as.Lhs[0], w.orderLoops(bin)), as.Pos())
			}
		}
	}
	for i, lhs := range as.Lhs {
		rhs := assignedFrom(as, i)
		if rhs == nil {
			continue
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !w.isBuiltinAppend(call) {
			w.orderTaint(lhs, w.orderLoops(rhs))
			continue
		}
		var loops []*ast.RangeStmt
		for _, a := range call.Args[1:] {
			loops = append(loops, w.orderLoops(a)...)
		}
		w.orderTaint(lhs, loops)
		obj := w.objOf(rootIdent(lhs))
		for _, l := range loops {
			if declaredBefore(obj, l) && !sortedInFunc(w.p, w.fnBody, obj) {
				w.orderSink(as.Pos(), "appending map-iteration-derived values to %q without sorting it afterwards: the slice order is randomized per process; sort before it escapes", obj.Name())
			}
		}
	}
}

// unindexed drops the loops that also index lhs: m[k] op= v with a
// tainted index updates a distinct slot per iteration, so the set of
// final values is deterministic even though the visit order is not.
func (w *sumWalker) unindexed(lhs ast.Expr, loops []*ast.RangeStmt) []*ast.RangeStmt {
	return slices.DeleteFunc(loops, func(l *ast.RangeStmt) bool {
		found := false
		ast.Inspect(lhs, func(n ast.Node) bool {
			if ix, ok := n.(*ast.IndexExpr); ok && slices.Contains(w.orderLoops(ix.Index), l) {
				found = true
			}
			return !found
		})
		return found
	})
}

// floatFold fires the float-accumulation sink when a float accumulator
// that outlives one of the loops folds in that loop's order.
func (w *sumWalker) floatFold(lhs ast.Expr, loops []*ast.RangeStmt, pos token.Pos) {
	t := w.p.Info.TypeOf(lhs)
	if t == nil {
		return
	}
	if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	acc := w.objOf(rootIdent(lhs))
	for _, l := range loops {
		if declaredBefore(acc, l) {
			w.orderSink(pos, "float accumulation into %s in map iteration order: float addition is not associative, so the sum depends on per-process randomness; iterate sorted keys instead", exprPath(lhs))
			return
		}
	}
}

// declaredBefore reports whether obj is declared before the loop body:
// a value that survives the loop, not a per-iteration temporary.
func declaredBefore(obj types.Object, l *ast.RangeStmt) bool {
	return obj != nil && obj.Pos() < l.Body.Pos()
}

// orderCall fires the emission and metric-interning sinks.
func (w *sumWalker) orderCall(call *ast.CallExpr) {
	if len(w.loops) == 0 {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	tainted := slices.ContainsFunc(call.Args, func(a ast.Expr) bool { return len(w.orderLoops(a)) > 0 })
	if tainted {
		if id, ok := sel.X.(*ast.Ident); ok {
			if path, isPkg := pkgNameOf(w.p.Info, id); isPkg && path == "fmt" &&
				(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
				w.orderSink(call.Pos(), "map-iteration-derived value reaches fmt.%s: output line order depends on per-process randomness; collect, sort, then emit", name)
				return
			}
		}
		if name == "Reportf" || name == "Encode" {
			w.orderSink(call.Pos(), "map-iteration-derived value reaches %s in map iteration order: emission order depends on per-process randomness; collect, sort, then emit", name)
			return
		}
	}
	if name == "Counter" || name == "Gauge" || name == "Histogram" {
		if recv := w.p.Info.TypeOf(sel.X); recv != nil && isMetricsRegistry(recv) {
			w.orderSink(call.Pos(), "interning a metric series (Registry.%s) inside a map-range loop: series creation order becomes random per process; intern eagerly outside the loop (the PR-4 convention)", name)
		}
	}
}

func (w *sumWalker) isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) < 2 {
		return false
	}
	_, isBuiltin := w.p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// sortedInFunc reports whether fnBody contains a sort-package call
// (or slices.Sort*) mentioning obj in its arguments — the
// collect-then-sort idiom that sanitizes an append in map order.
func sortedInFunc(p *Pass, fnBody *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if path, isPkg := pkgNameOf(p.Info, id); !isPkg || (path != "sort" && path != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if aid, ok := an.(*ast.Ident); ok && p.Info.Uses[aid] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// rootIdent returns the base identifier of an lvalue chain
// (x, x.f, x[i].g → x), or nil for unrooted expressions.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isMetricsRegistry reports whether t is internal/metrics.Registry
// (through one pointer level).
func isMetricsRegistry(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == "Registry" && obj.Pkg() != nil &&
		pathEndsIn(obj.Pkg().Path(), "internal/metrics")
}
