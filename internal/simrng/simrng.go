// Package simrng provides deterministic, seeded random utilities for
// workload and trace generation. Every experiment in this repository is
// reproducible from its seed; nothing here reads global entropy.
package simrng

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// RNG wraps math/rand with the distributions the trace generator needs.
type RNG struct {
	r *rand.Rand
}

// New returns an RNG seeded with seed.
func New(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child RNG; deterministic given the label.
// Use it to give each subsystem its own stream so adding draws in one
// place does not perturb another.
func (g *RNG) Split(label string) *RNG {
	var h int64 = 1469598103934665603
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return New(h ^ g.r.Int63())
}

// ArmSeed derives the seed for arm `arm` of a multi-arm experiment
// rooted at rootSeed. It reuses Split's FNV-1a mixing over the byte
// representation of (rootSeed, arm) so nearby pairs land far apart in
// seed space and every arm gets an independent stream. The derivation
// is a pure function of its arguments: it does not consume entropy
// from any RNG, so the mapping from arm index to seed is identical no
// matter how many workers run the arms or in what order they finish.
func ArmSeed(rootSeed int64, arm int) int64 {
	var h uint64 = 1469598103934665603
	mix := func(x uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= 1099511628211
		}
	}
	mix(uint64(rootSeed))
	mix(uint64(arm))
	// Clear the sign bit: seeds stay non-negative so logs and JSON
	// artifacts render them the same way as user-supplied seeds.
	return int64(h &^ (1 << 63))
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative 63-bit value.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exponential returns an exponentially distributed value with the given
// mean. It panics if mean <= 0.
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("simrng: non-positive exponential mean %v", mean))
	}
	return g.r.ExpFloat64() * mean
}

// Gamma returns a gamma-distributed value with the given shape and
// scale (mean shape*scale), via Marsaglia–Tsang squeeze sampling. For
// shape < 1 it uses the boost Gamma(k) = Gamma(k+1)·U^(1/k). Gamma
// interarrivals parameterized by a coefficient of variation are how
// the load generator shapes bursty arrival processes: CV 1 is Poisson,
// CV > 1 is burstier. It panics if shape or scale is non-positive.
func (g *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("simrng: non-positive gamma shape %v or scale %v", shape, scale))
	}
	if shape < 1 {
		// Boost: draw at shape+1, then scale down by U^(1/shape).
		u := g.r.Float64()
		for u == 0 {
			u = g.r.Float64()
		}
		return g.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// GammaInterarrival returns one interarrival time for a renewal
// process with the given mean interval and coefficient of variation:
// shape 1/cv², scale mean·cv², so the draw has the requested mean and
// CV. It panics if mean or cv is non-positive.
func (g *RNG) GammaInterarrival(mean, cv float64) float64 {
	if mean <= 0 || cv <= 0 {
		panic(fmt.Sprintf("simrng: non-positive interarrival mean %v or cv %v", mean, cv))
	}
	return g.Gamma(1/(cv*cv), mean*cv*cv)
}

// LogNormal returns a log-normally distributed value where the underlying
// normal has mean mu and standard deviation sigma.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.r.NormFloat64()*sigma + mu)
}

// Normal returns a normally distributed value.
func (g *RNG) Normal(mu, sigma float64) float64 {
	return g.r.NormFloat64()*sigma + mu
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. It panics if all weights are zero or any
// weight is negative.
func (g *RNG) WeightedChoice(weights []float64) int {
	var total float64
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("simrng: negative weight %v at %d", w, i))
		}
		total += w
	}
	if total <= 0 {
		panic("simrng: all weights zero")
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Zipf draws values in [0, n) with Zipfian skew s (s > 1 means heavier
// head). Used to model popularity of shared datasets.
type Zipf struct {
	cdf []float64
	g   *RNG
}

// NewZipf builds a Zipf sampler over n items with exponent s >= 0.
// s == 0 degenerates to uniform. It panics if n <= 0.
func NewZipf(g *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("simrng: zipf over empty domain")
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf, g: g}
}

// Next draws the next Zipf-distributed index.
func (z *Zipf) Next() int {
	x := z.g.Float64()
	return sort.SearchFloat64s(z.cdf, x)
}

// BoundedLogNormal draws log-normal values truncated (by resampling, with
// a clamp fallback) into [lo, hi].
func (g *RNG) BoundedLogNormal(mu, sigma, lo, hi float64) float64 {
	for i := 0; i < 64; i++ {
		v := g.LogNormal(mu, sigma)
		if v >= lo && v <= hi {
			return v
		}
	}
	v := g.LogNormal(mu, sigma)
	return math.Min(math.Max(v, lo), hi)
}
