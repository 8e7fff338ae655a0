package lint

import "strings"

// RNGPurity keeps all randomness behind internal/simrng. It protects
// the same property wallclock does: two runs with the same seed must
// produce byte-identical results, and math/rand outside the seeded
// simrng wrapper introduces unseeded (or doubly-seeded) streams. Map
// iteration order, the other per-process randomness, is maporder's.
var RNGPurity = &Analyzer{
	Name: "rngpurity",
	Doc: "bans math/rand imports outside internal/simrng: every draw " +
		"comes from a seeded simrng stream",
	Run: runRNGPurity,
}

func runRNGPurity(p *Pass) {
	if pathEndsIn(p.Path, "internal/simrng") {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(), "import %s outside internal/simrng: draw randomness from a seeded simrng.RNG so runs are reproducible", path)
			}
		}
	}
}
