package lint

// MapOrder follows the values a range over a map produces and reports
// when any of them reaches an order-sensitive sink — float accumulation
// (the pre-PR-5 requiredIO bug), an unsorted slice that escapes, a
// metric series interned mid-loop, or output formatting. The flow
// analysis is the call-graph summary's (summary.go): the same sinks are
// purecheck's findings inside silod:pure functions.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "tracks values derived from map iteration and flags " +
		"order-sensitive sinks: float accumulation, unsorted append " +
		"escape, metric-series interning, and output emission — all of " +
		"which break same-seed byte-identity",
	Run: runMapOrder,
}

func runMapOrder(p *Pass) {
	f := ensureCGFragment(p)
	for _, fi := range f.fns {
		for _, s := range fi.order {
			p.Reportf(s.pos, "%s", s.msg)
		}
	}
	for _, s := range f.initOrder {
		p.Reportf(s.pos, "%s", s.msg)
	}
}
