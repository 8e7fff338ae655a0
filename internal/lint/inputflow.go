package lint

import "fmt"

// InputFlow is the untrusted-input taint analyzer: struct types
// annotated // silod:untrusted (the JSON-decoded control-plane request
// types — SubmitJob, heartbeat, progress) are treated as attacker
// influenced, and any field that flows into an allocation size, a
// slice index, a loop bound, or quota arithmetic without first passing
// a validation step is a finding. This is the robustness floor for
// the public-facing serving mode (docs/serving.md): a daemon that sizes a
// buffer or spins a loop off a raw request field is one crafted POST
// away from an out-of-memory or an index panic.
//
// Two validation idioms are recognized (see summary.go for the flow
// model):
//
//   - the inline guard: an if statement that mentions the field and
//     returns/branches out sanitizes that (value, field) pair from the
//     guard onward — the shape Scheduler.Submit already uses;
//   - the factored validator: passing the whole request (value or
//     pointer, argument or receiver) to a function annotated
//     // silod:validator sanitizes every field below the call site.
//
// Flows are tracked across function boundaries through the call-graph
// engine's parameter→sink summaries, so handing req.N to a helper that
// makes a slice of that length is found even though the make is two
// calls away. A parameter that is itself of an untrusted type reports
// at its own read sites instead of through callers' summaries — one
// finding per violation, at the most precise position.
var InputFlow = &Analyzer{
	Name: "inputflow",
	Doc: "fields of // silod:untrusted request types must not reach " +
		"allocation sizes, slice indexing, loop bounds, or quota " +
		"arithmetic without an inline guard or a // silod:validator",
	Run:    runCallGraph,
	Finish: finishInputFlow,
}

func finishInputFlow(p *Pass) {
	st, ok := p.Shared[callgraphKey].(*cgState)
	if !ok {
		return
	}
	st.finalize()
	for _, n := range st.nodes {
		for i := range n.info.flows {
			f := &n.info.flows[i]
			if f.utype == nil || !st.untrusted[f.utype] {
				continue
			}
			if st.gateSuppressed(n.info, f) {
				continue
			}
			mask := st.flowSinks(f)
			if mask == 0 {
				continue
			}
			via := ""
			switch {
			case f.callee != nil:
				via = fmt.Sprintf(" via %s", f.callee.FullName())
			case f.iface != nil:
				via = fmt.Sprintf(" via %s.%s", f.iface.Name(), f.method)
			}
			field := f.field
			if field == "" {
				field = "(whole value)"
			}
			p.Reportf(f.pos,
				"untrusted %s.%s flows into %s%s without validation: add an early-return guard on the field or pass the request through a // silod:validator first",
				f.utype.Name(), field, mask, via)
		}
	}
}
