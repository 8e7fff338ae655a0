package lint

import "go/ast"

// wallclockPkgs are the virtual-time package suffixes: everything here
// is driven by the simulator's event clock (or an injected clock), so
// reading the machine's wall clock silently breaks bit-determinism.
var wallclockPkgs = []string{
	"internal/sim",
	"internal/eventq",
	"internal/cache",
	"internal/estimator",
	"internal/controlplane",
	"internal/faults",
}

// wallclockBanned are the time-package functions that read or block on
// the wall clock. Constructors like time.NewTicker are allowed: they
// show up only in explicitly real-time daemon loops (Serve), which
// take their cadence as a parameter.
var wallclockBanned = map[string]string{
	"Now":   "inject a clock (func() time.Time or the simulator's virtual clock)",
	"Sleep": "advance virtual time through the event queue instead",
	"Since": "subtract injected clock readings instead",
	"Until": "subtract injected clock readings instead",
	"Tick":  "take a ticker as a parameter at the daemon edge instead",
}

// Wallclock bans bare wall-clock reads in virtual-time packages. The
// simulator's bit-determinism (same seed, same trace, byte-identical
// metrics snapshot) only holds if every timestamp flows from the
// virtual clock; one stray time.Now contaminates JCTs, timelines and
// metrics with host-machine noise.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "bans time.Now/Sleep/Since/Until/Tick in virtual-time packages " +
		"(internal/{sim,eventq,cache,estimator,controlplane,faults}); time " +
		"must come from an injected clock so simulations stay bit-deterministic",
	Run: runWallclock,
}

func runWallclock(p *Pass) {
	if !pathEndsInAny(p.Path, wallclockPkgs) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if path, ok := pkgNameOf(p.Info, id); !ok || path != "time" {
				return true
			}
			if fix, banned := wallclockBanned[sel.Sel.Name]; banned {
				p.Reportf(sel.Pos(), "bare time.%s in virtual-time package %s: %s",
					sel.Sel.Name, p.Path, fix)
			}
			return true
		})
	}
}
