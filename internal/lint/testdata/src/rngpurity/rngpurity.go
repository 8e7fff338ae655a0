// Fixture for the rngpurity analyzer: a math/rand import outside
// internal/simrng is a violation. Map-iteration order is maporder's
// (see the maporder fixture).
package rngpurity

import (
	"math/rand" // want `import math/rand outside internal/simrng`
)

// Shuffle draws from the global, unseeded stream.
func Shuffle(n int) int { return rand.Intn(n) }
