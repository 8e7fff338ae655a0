package cache

import (
	"math"

	"repro/internal/unit"
)

// FluidStream describes one active dataset scan for the fluid LRU
// model: a job (or set of jobs) reading a dataset of size Size at an
// aggregate rate Rate, shuffled once per epoch.
type FluidStream struct {
	Size unit.Bytes     // dataset size d
	Rate unit.Bandwidth // data-loading throughput f (bytes/s)
}

// epochPeriod returns the re-access period T = d/f of a block, or +Inf
// for an idle stream.
//
// silod:pure
func (s FluidStream) epochPeriod() float64 {
	if s.Rate <= 0 {
		return math.Inf(1)
	}
	return float64(s.Size) / float64(s.Rate)
}

// gapCDF is the CDF of the inter-access gap of a single block under
// epoch-shuffled exactly-once access: if a block lands at uniform
// positions in two consecutive epochs of length T, the gap is
// T·(1 - U1 + U2), triangular on (0, 2T). x is the gap, T the period.
//
// silod:pure
func gapCDF(x, T float64) float64 {
	if T <= 0 || math.IsInf(T, 1) {
		return 0
	}
	r := x / T
	switch {
	case r <= 0:
		return 0
	case r <= 1:
		return r * r / 2
	case r <= 2:
		return 1 - (2-r)*(2-r)/2
	default:
		return 1
	}
}

// gapSurvivalIntegral is ∫₀^y (1 - F(x)) dx for the triangular gap CDF,
// used for the stationary "age < τ" occupancy probability.
// silod:pure
func gapSurvivalIntegral(y, T float64) float64 {
	if T <= 0 || math.IsInf(T, 1) {
		return 0
	}
	if y <= 0 {
		return 0
	}
	if y >= 2*T {
		return T // the full mean
	}
	if y <= T {
		return y - y*y*y/(6*T*T)
	}
	// Split at T: ∫₀^T + ∫_T^y.
	head := T - T/6
	u := 2 - y/T
	tail := T/6 - T*u*u*u/6
	return head + tail
}

// occupancy returns the stationary probability that a block of a stream
// with period T is in an LRU cache with characteristic time τ.
// silod:pure
func occupancy(tau, T float64) float64 {
	if math.IsInf(T, 1) {
		return 0
	}
	if T <= 0 {
		return 1
	}
	// Branch instead of math.Min: both inputs are finite here (T > 0,
	// the integral is bounded by T), so the result is bit-identical and
	// the function call drops out of the bisection's innermost loop.
	if v := gapSurvivalIntegral(tau, T) / T; v < 1 {
		return v
	}
	return 1
}

// CheLRUInto solves the Che characteristic-time approximation for a
// shared LRU cache of the given capacity under epoch-shuffled DL
// access. It writes the per-stream expected hit ratios into dst, reused
// when its capacity allows (the result aliases dst's backing array
// then). The model reproduces the qualitative LRU behaviours the paper
// reports: thrashing when the aggregate working set exceeds capacity,
// and faster (more cache-efficient) jobs indirectly receiving more
// cache because their blocks are re-touched sooner (§7.1.2).
//
// The Che fixed point is a deterministic function of (capacity,
// streams); the simulator replays it byte-identically.
//
// silod:pure
func CheLRUInto(dst []float64, capacity unit.Bytes, streams []FluidStream) []float64 {
	if cap(dst) < len(streams) {
		dst = make([]float64, len(streams)) // grows the caller's buffer
	}
	hits := dst[:len(streams)]
	if capacity <= 0 || len(streams) == 0 {
		clear(hits)
		return hits
	}
	// Periods are loop-invariant across the ~55 bisection evaluations,
	// so the per-stream division happens once here. They live in hits
	// until the last step turns each into its stream's hit ratio.
	periods := hits
	var totalActive unit.Bytes
	maxT := 0.0
	for i, s := range streams {
		T := s.epochPeriod()
		periods[i] = T
		if !math.IsInf(T, 1) {
			totalActive += s.Size
			if T > maxT {
				maxT = T
			}
		}
	}
	if totalActive == 0 {
		clear(hits)
		return hits
	}
	if totalActive <= capacity {
		// Everything fits: after warm-up every access hits.
		for i, s := range streams {
			hits[i] = 0
			if s.Rate > 0 {
				hits[i] = 1
			}
		}
		return hits
	}
	// Bisection on τ: occupancy is monotone increasing in τ.
	lo, hi := 0.0, 2*maxT
	target := float64(capacity)
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		prevLo, prevHi := math.Float64bits(lo), math.Float64bits(hi)
		if occBytes(mid, streams, periods) < target {
			lo = mid
		} else {
			hi = mid
		}
		// Bit-level fixed point: once an iteration leaves the bracket
		// unchanged (the midpoint has collapsed onto an endpoint at
		// float64 precision), every remaining iteration repeats it
		// exactly, so stopping cannot change τ by a single bit.
		if math.Float64bits(lo) == prevLo && math.Float64bits(hi) == prevHi {
			break
		}
	}
	tau := (lo + hi) / 2
	for i := range streams {
		hits[i] = gapCDF(tau, periods[i])
	}
	return hits
}

// occBytes is the expected bytes of the streams resident in an LRU
// cache with characteristic time tau.
//
// silod:pure
func occBytes(tau float64, streams []FluidStream, periods []float64) float64 {
	var total float64
	for i, s := range streams {
		total += float64(s.Size) * occupancy(tau, periods[i])
	}
	return total
}
