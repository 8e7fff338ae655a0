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

// CheWork is CheLRUInto's workspace, owned by the caller: the
// per-stream loop invariants of the occupancy sum. The zero value is
// ready, and a reused one makes the solve allocation-free.
type CheWork struct {
	terms []cheTerm
	evals int // occupancy sums the last solve took
}

// cheTerm is one stream's share of the occupancy sum with its loop
// invariants hoisted. Each field is the value the expression it
// replaces computes, from the same operands in the same order, so
// reading it instead changes no bit of the sum.
type cheTerm struct {
	size  float64 // float64(Size)
	t     float64 // the period T
	twoT  float64 // 2*T, where occupancy reaches 1; -Inf for a constant term
	sixTT float64 // 6*T*T
	head  float64 // T - T/6, ∫₀^T of the gap survival
	sixth float64 // T/6
	slope float64 // size/T, the term's slope at τ = 0 (Newton only)
	curve float64 // size/(2T³): the slope falls by curve·τ² up to T (Newton only)
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
// τ is found by bisection, and the result is a deterministic function
// of (capacity, streams) alone: hint, a guess at τ (the caller's
// previous solve), only decides how many occupancy sums the search
// takes, never a bit of its answer. The second result is τ, or hint
// when the cache needs none (everything fits, or nothing is active).
//
// silod:pure
func CheLRUInto(dst []float64, capacity unit.Bytes, streams []FluidStream, hint float64, w *CheWork) ([]float64, float64) {
	if cap(dst) < len(streams) {
		dst = make([]float64, len(streams)) // grows the caller's buffer
	}
	hits := dst[:len(streams)]
	w.evals = 0
	if capacity <= 0 || len(streams) == 0 {
		clear(hits)
		return hits, hint
	}
	// Periods live in hits until the last step turns each into its
	// stream's hit ratio.
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
		return hits, hint
	}
	if totalActive <= capacity {
		// Everything fits: after warm-up every access hits.
		for i, s := range streams {
			hits[i] = 0
			if s.Rate > 0 {
				hits[i] = 1
			}
		}
		return hits, hint
	}
	// Bisection on τ: occupancy is monotone increasing in τ. A midpoint
	// outside the certified bracket (a, b) compares with target exactly
	// as its occupancy sum would, so only the midpoints inside it are
	// summed. a or b is NaN when that side has no certificate; NaN
	// compares false, so it then decides nothing.
	E := w.load(streams, periods)
	lo, hi := 0.0, 2*maxT
	target := float64(capacity)
	a, b := w.bracket(target, hi, hint, E)
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		prevLo, prevHi := math.Float64bits(lo), math.Float64bits(hi)
		below := mid <= a
		if !below && !(mid >= b) {
			f, _ := w.sum(mid)
			below = f < target
		}
		if below {
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
	return hits, tau
}

// load fills w.terms from streams and their periods and returns E, a
// bound on |f(τ) − F(τ)| for every τ in [0, 2·maxT], where f is the
// float occupancy sum (sum) and F the same sum in exact arithmetic on
// the same float sizes and periods. E is NaN where the bound does not
// hold (an unscaled instance), which certifies nothing.
//
// A stream whose term is ±0 at every τ (zero size, or an idle stream
// of finite size) is left out: the sum starts at +0 and only ever
// adds its terms, so it is never -0, and adding ±0 leaves its bits as
// they are. A term that is the same at every τ (size·1, or the NaN of
// an idle stream of infinite size) stays, as a constant term, in its
// place: the sum's operation order is the reference's.
//
// The bound, with u = 2⁻⁵³ and every kept size and period in
// [2⁻²⁵⁶, 2²⁵⁶] (no operation overflows, and what underflow loses is
// far below the slack in the last step):
//   - y ≤ T: q = y³/(6T²) ≤ y/6 takes five roundings, y − q ≥ 5y/6 one
//     more and the division by T one more; |ocĉ − occ| ≤ (5/6+1+1)u < 3u.
//   - T < y < 2T: 2 − fl(y/T) is exact (Sterbenz) and off by ≤ 2u;
//     T·û³/6 is then off by ≤ (1 + 4/6)·uT, T/6 and the tail's
//     subtraction add u·T/3, the head uT, the final sum uT: g is off by
//     ≤ 4uT, and occ = g/T by ≤ 5u.
//   - y ≥ 2T, constant terms: exact. min(·, 1) is 1-Lipschitz.
//
// So each product size·ocĉ is off by ≤ 6u·|size| + u·|size|, and the
// recursive sum of K terms adds ≤ γ_{K−1}·Σ|size|(1+7u), γₙ = nu/(1−nu):
// |f − F| ≤ (K+7)·u·Σ|size|·(1+Ku). E = (K+16)·2⁻⁵²·Σ̂|size|, with the
// float Σ̂ at most γ_{K−1} below the exact one, exceeds that by more
// than a factor of two, which also covers what underflow loses.
//
// silod:pure
func (w *CheWork) load(streams []FluidStream, periods []float64) float64 {
	terms := w.terms[:0]
	mag := 0.0 // Σ|size| over the kept terms
	scaled := true
	for i, s := range streams {
		size, T := float64(s.Size), periods[i]
		t := cheTerm{size: size, twoT: math.Inf(-1)}
		switch {
		case size == 0:
			continue
		case math.IsInf(T, 1):
			if t.size = size * 0; t.size == 0 {
				continue
			}
		case T > 0:
			t = cheTerm{size: size, t: T, twoT: 2 * T, sixTT: 6 * T * T, head: T - T/6, sixth: T / 6, slope: size / T, curve: size / (2 * T * T * T)}
			scaled = scaled && T >= 0x1p-256 && T <= 0x1p256
		}
		m := math.Abs(t.size)
		scaled = scaled && m >= 0x1p-256 && m <= 0x1p256
		mag += m
		terms = append(terms, t)
	}
	w.terms = terms
	if !scaled {
		return math.NaN()
	}
	return float64(len(terms)+16) * 0x1p-52 * mag
}

// sum returns f(y), the occupancy sum Σ size·occupancy(y, T) over the
// terms in stream order, every operation as the reference performs it,
// and beside it the slope F′(y) = Σ size·(1 − gapCDF(y, T))/T, which
// only Newton reads.
//
// silod:pure
func (w *CheWork) sum(y float64) (f, slope float64) {
	w.evals++
	y2 := y * y
	y3 := y2 * y
	for i := range w.terms {
		t := &w.terms[i]
		var v float64
		if y >= t.twoT {
			f += t.size
			continue
		}
		if y <= t.t {
			v = (y - y3/t.sixTT) / t.t
			slope += t.slope - t.curve*y2
		} else {
			u := 2 - y/t.t
			v = (t.head + (t.sixth - t.t*u*u*u/6)) / t.t
			slope += t.slope * (u * u / 2)
		}
		if v < 1 {
			f += t.size * v
		} else {
			f += t.size
		}
	}
	return f, slope
}

// bracket runs a safeguarded Newton iteration for F(τ) = target on
// [0, hi], starting from hint, and returns points a < b around the root
// with f(a) + 2E < target and f(b) − 2E > target. Since F is
// nondecreasing and |f − F| ≤ E everywhere, every τ ≤ a then has
// f(τ) ≤ F(a) + E ≤ f(a) + 2E < target, and every τ ≥ b has
// f(τ) ≥ F(b) − E ≥ f(b) − 2E > target: the bisection's comparison
// at such a midpoint is known without summing. (A float sum or
// difference that compares strictly with the float target compares the
// same way in exact arithmetic, since rounding is monotone.) A side
// that no evaluation certified is NaN.
//
// F is concave and C¹, so after its first step Newton approaches the
// root from below, quadratically; a step that leaves the bracket of
// evaluated points bisects it instead. Once a step is shorter than the
// certificate's half-width d = 4E/F′, whose sums sit 3E on each side
// of target, the points next ∓ d are tried, each widened up to twice
// by a factor of four if its sum fails.
//
// silod:pure
func (w *CheWork) bracket(target, hi, hint, E float64) (a, b float64) {
	a, b = math.NaN(), math.NaN()
	if !(E < math.Inf(1)) || !(hi > 0 && hi < math.Inf(1)) {
		return a, b
	}
	l, r := 0.0, hi
	prevX, prevS := math.NaN(), math.NaN()
	x := hint
	if !(x > 0 && x < hi) {
		x = hi / 2
	}
	for n := 0; n < 64; n++ {
		f, s := w.sum(x)
		if f < target {
			l = x
		} else {
			r = x
		}
		if f+2*E < target && !(x <= a) {
			a = x
		}
		if f-2*E > target && !(x >= b) {
			b = x
		}
		step := (target - f) / s
		next := x + step
		// Newton's error after this step is about F″/(2F′)·step², with
		// F″ from the last two slopes; once that is under d/8 the step
		// is taken without summing at its end. A step must stay inside
		// the bracket of evaluated points: E bounds the sum's error
		// only on [0, hi], so every certificate must lie there too.
		curv := (s - prevS) / (x - prevX)
		prevX, prevS = x, s
		inside := next > l && next < r || next == x
		if d := 4 * E / s; inside && s > 0 && (math.Abs(step) <= d || math.Abs(curv)*step*step <= d/4*s) {
			for k := 0; k < 3; k, d = k+1, 4*d {
				p := next - d
				if p <= a || p <= 0 {
					break
				}
				if f, _ := w.sum(p); f+2*E < target {
					a = p
					break
				}
			}
			d = 4 * E / s
			for k := 0; k < 3; k, d = k+1, 4*d {
				p := next + d
				if p >= b || p >= hi {
					break
				}
				if f, _ := w.sum(p); f-2*E > target {
					b = p
					break
				}
			}
			return a, b
		}
		if !inside || next == x {
			next = l + (r-l)/2
			if !(next > l && next < r) {
				break // the bracket is one ulp wide
			}
		}
		x = next
	}
	return a, b
}
