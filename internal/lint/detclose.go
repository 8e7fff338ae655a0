package lint

// DetClose is the determinism-closure analyzer: from every declared
// simulation root (// silod:sim-root — sim.Run, the experiments entry
// points, the silodsim driver) it proves, over the whole-program call
// graph of callgraph.go, that no wall-clock read, global-RNG draw, or
// map-order-dependent emission is transitively reachable except through
// a function annotated // silod:inject with that effect.
//
// This turns the PR-5/7 determinism *tests* (byte-identical reruns at a
// fixed seed) into a *proof obligation*: a test catches the stray
// time.Now only on the code path the seed happens to exercise, while
// the closure covers every reachable function, including interface
// dispatch (resolved against the module's concrete types) and recursion
// (condensed with Tarjan SCCs). The map-order effect is maporder's:
// a function has it when one of maporder's sinks fires in its body.
//
// An effect that is *supposed* to cross the boundary — the testbed's
// real wall clock, a daemon's ticker — is an audited injection point:
// annotate the function // silod:inject wallclock (or rng, maporder)
// and the effect stops propagating to callers. Calls through plain
// func-typed values are not resolved by design: passing func() time.Time
// into the simulator is exactly the injection idiom the closure exists
// to enforce.
//
// The driver's -why flag prints the offending call path (root, each
// call hop, the effect's witness site) carried on the diagnostic.
var DetClose = &Analyzer{
	Name: "detclose",
	Doc: "functions annotated // silod:sim-root must not transitively " +
		"reach a wall-clock read, global-RNG draw, or map-order-dependent " +
		"emission except through a // silod:inject boundary",
	Run:    runCallGraph,
	Finish: finishDetClose,
}

func finishDetClose(p *Pass) {
	st, ok := p.Shared[callgraphKey].(*cgState)
	if !ok {
		return
	}
	st.finalize()
	for _, n := range st.nodes {
		if !n.info.root {
			continue
		}
		for i := 0; i < numEffects; i++ {
			e := effect(1 << i)
			if n.eff&e == 0 {
				continue
			}
			trace := st.tracePath(p.Fset, n, e)
			what := "unknown site"
			if len(trace) > 0 {
				what = trace[len(trace)-1].Call
			}
			p.reportTrace(n.info.decl.Pos(), trace,
				"simulation root %s transitively reaches a %s (%s) outside any silod:inject boundary; run silodlint -why for the call path",
				n.info.fn.Name(), e.desc(), what)
		}
	}
}
