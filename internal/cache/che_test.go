package cache

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/simrng"
	"repro/internal/unit"
)

// sameHits reports the first stream whose hit ratio differs in its bits
// from the reference solver's, or -1.
func sameHits(capacity unit.Bytes, streams []FluidStream, hint float64, w *CheWork) (int, float64, float64) {
	want := refCheLRUInto(nil, capacity, streams)
	got, _ := CheLRUInto(nil, capacity, streams, hint, w)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, got[i], want[i]
		}
	}
	return -1, 0, 0
}

// randomStreams draws k streams with sizes log-uniform in [1 B, 2⁵² B]
// and rates log-uniform over nine decades, about one in eight idle.
func randomStreams(rng *simrng.RNG, k int) []FluidStream {
	streams := make([]FluidStream, k)
	for i := range streams {
		streams[i].Size = unit.Bytes(math.Round(math.Exp2(rng.Uniform(0, 52))))
		if rng.Intn(8) > 0 {
			streams[i].Rate = unit.Bandwidth(math.Exp2(rng.Uniform(0, 30)))
		}
	}
	return streams
}

// activeBytes is Σ Size over the streams that read at all.
func activeBytes(streams []FluidStream) unit.Bytes {
	var total unit.Bytes
	for _, s := range streams {
		if s.Rate > 0 {
			total += s.Size
		}
	}
	return total
}

// hints are the Newton starts every instance is solved from: none,
// invalid ones, far ones and near ones around the solver's own τ.
func hints(tau float64) []float64 {
	return []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), tau, tau * (1 + 1e-3), tau * (1 - 1e-9), tau * 1e6, tau * 1e-9, math.MaxFloat64}
}

func TestCheLRUMatchesReference(t *testing.T) {
	rng := simrng.New(40)
	var w CheWork
	n := 600
	if testing.Short() {
		n = 100
	}
	for trial := 0; trial < n; trial++ {
		k := 1 + rng.Intn(400)
		if trial%2 == 0 {
			k = 1 + rng.Intn(12)
		}
		streams := randomStreams(rng, k)
		capacity := activeBytes(streams) * unit.Bytes(rng.Uniform(0, 1.05))
		_, tau := CheLRUInto(nil, capacity, streams, 0, &w)
		for _, h := range hints(tau) {
			if i, got, want := sameHits(capacity, streams, h, &w); i >= 0 {
				t.Fatalf("trial %d (k=%d, capacity %v, hint %v): stream %d hit %v (%#x), reference %v (%#x)",
					trial, k, capacity, h, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// exactSum is F(y): the occupancy sum of the loaded terms in exact
// rational arithmetic on the same float sizes and periods.
func exactSum(y float64, terms []cheTerm) *big.Rat {
	total := new(big.Rat)
	ry := new(big.Rat).SetFloat64(y)
	for _, t := range terms {
		size := new(big.Rat).SetFloat64(t.size)
		occ := big.NewRat(1, 1)
		if y < t.twoT {
			T := new(big.Rat).SetFloat64(t.t)
			if y <= t.t {
				// (y − y³/(6T²))/T
				q := new(big.Rat).Mul(ry, ry)
				q.Mul(q, ry)
				q.Quo(q, new(big.Rat).Mul(big.NewRat(6, 1), new(big.Rat).Mul(T, T)))
				occ.Sub(ry, q)
				occ.Quo(occ, T)
			} else {
				// 1 − (2 − y/T)³/6
				u := new(big.Rat).Sub(big.NewRat(2, 1), new(big.Rat).Quo(ry, T))
				c := new(big.Rat).Mul(u, u)
				c.Mul(c, u)
				c.Quo(c, big.NewRat(6, 1))
				occ.Sub(occ, c)
			}
			if occ.Cmp(big.NewRat(1, 1)) > 0 {
				occ.SetInt64(1)
			}
		}
		total.Add(total, occ.Mul(occ, size))
	}
	return total
}

// TestCheErrorBound checks the bound every certificate rests on:
// |f(y) − F(y)| ≤ E, with F evaluated exactly, at points spread over
// [0, 2·maxT] and at each period's two breakpoints.
func TestCheErrorBound(t *testing.T) {
	rng := simrng.New(43)
	var w CheWork
	worst := 0.0
	for trial := 0; trial < 40; trial++ {
		var streams []FluidStream
		if trial%2 == 0 {
			streams, _ = engineStreams(rng)
		} else {
			streams = randomStreams(rng, 1+rng.Intn(100))
		}
		periods := make([]float64, len(streams))
		maxT := 0.0
		for i, s := range streams {
			periods[i] = s.epochPeriod()
			if !math.IsInf(periods[i], 1) {
				maxT = max(maxT, periods[i])
			}
		}
		E := w.load(streams, periods)
		ys := []float64{0, 2 * maxT}
		for i := 0; i < 6; i++ {
			ys = append(ys, rng.Uniform(0, 2*maxT))
		}
		for _, term := range w.terms[:min(len(w.terms), 3)] {
			ys = append(ys, term.t, math.Nextafter(term.t, 0), math.Nextafter(term.t, math.Inf(1)), math.Nextafter(term.twoT, 0))
		}
		for _, y := range ys {
			if y < 0 || y > 2*maxT {
				continue
			}
			f, _ := w.sum(y)
			diff := new(big.Rat).Sub(new(big.Rat).SetFloat64(f), exactSum(y, w.terms))
			err, _ := diff.Abs(diff).Float64()
			if !(err <= E) {
				t.Fatalf("trial %d, y %v: |f − F| = %g exceeds E = %g", trial, y, err, E)
			}
			worst = max(worst, err/E)
		}
	}
	t.Logf("largest |f − F| seen: %.3g of E", worst)
}

// refMids returns the midpoints the reference bisection sums, in order.
func refMids(capacity unit.Bytes, streams []FluidStream) []float64 {
	periods := make([]float64, len(streams))
	maxT := 0.0
	for i, s := range streams {
		periods[i] = s.epochPeriod()
		if !math.IsInf(periods[i], 1) && periods[i] > maxT {
			maxT = periods[i]
		}
	}
	var mids []float64
	lo, hi := 0.0, 2*maxT
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		prevLo, prevHi := math.Float64bits(lo), math.Float64bits(hi)
		mids = append(mids, mid)
		if occBytes(mid, streams, periods) < float64(capacity) {
			lo = mid
		} else {
			hi = mid
		}
		if math.Float64bits(lo) == prevLo && math.Float64bits(hi) == prevHi {
			break
		}
	}
	return mids
}

// TestCheLRUAdversarial puts the capacity within a few E of the sum at
// one of the reference's own midpoints, where a certificate one E too
// generous would decide that midpoint the wrong way.
func TestCheLRUAdversarial(t *testing.T) {
	rng := simrng.New(41)
	var w CheWork
	n := 300
	if testing.Short() {
		n = 60
	}
	for trial := 0; trial < n; trial++ {
		streams := randomStreams(rng, 1+rng.Intn(60))
		for i := range streams {
			if streams[i].Rate == 0 {
				streams[i].Rate = 1
			}
		}
		total := activeBytes(streams)
		mids := refMids(total*unit.Bytes(rng.Uniform(0.05, 0.95)), streams)
		mid := mids[rng.Intn(len(mids))]
		periods := make([]float64, len(streams))
		for i, s := range streams {
			periods[i] = s.epochPeriod()
		}
		f := occBytes(mid, streams, periods)
		E := w.load(streams, periods)
		for _, c := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1)), f - E, f + E, f - 2*E, f + 2*E, f - 3*E, f + 3*E, f + rng.Uniform(-4, 4)*E} {
			capacity := unit.Bytes(c)
			_, tau := CheLRUInto(nil, capacity, streams, 0, &w)
			for _, h := range []float64{0, mid, tau, tau * (1 + 1e-6)} {
				if i, got, want := sameHits(capacity, streams, h, &w); i >= 0 {
					t.Fatalf("trial %d (capacity %v = f(%v)%+g, hint %v): stream %d hit %#x, reference %#x",
						trial, capacity, mid, c-f, h, i, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// engineStreams draws an instance shaped like the fluid engine's: a few
// dozen datasets of 50–1500 GB read at 2–300 MB/s, with a cache holding
// a quarter to three quarters of them.
func engineStreams(rng *simrng.RNG) ([]FluidStream, unit.Bytes) {
	streams := make([]FluidStream, 1+rng.Intn(60))
	for i := range streams {
		streams[i] = FluidStream{
			Size: unit.Bytes(rng.Uniform(50, 1500)) * unit.GB,
			Rate: unit.Bandwidth(rng.Uniform(2, 300)) * unit.MBps,
		}
	}
	return streams, activeBytes(streams) * unit.Bytes(rng.Uniform(0.25, 0.75))
}

// TestCheEvaluationsPerSolve pins what the certified bracket saves: a
// solve warm-started from a neighbouring solve's τ, as the engine's
// rate fixed point makes them, takes at most half the occupancy sums of
// plain bisection. A wider E or a broken Newton step fails here.
func TestCheEvaluationsPerSolve(t *testing.T) {
	rng := simrng.New(42)
	var w CheWork
	var plainCold, cold, plainWarm, warm int
	for trial := 0; trial < 200; trial++ {
		streams, capacity := engineStreams(rng)
		plainCold += len(refMids(capacity, streams))
		_, tau := CheLRUInto(nil, capacity, streams, 0, &w)
		cold += w.evals
		// The fixed point's next solve: every rate moved by under 1 %.
		for i := range streams {
			streams[i].Rate *= unit.Bandwidth(rng.Uniform(0.99, 1.01))
		}
		plainWarm += len(refMids(capacity, streams))
		CheLRUInto(nil, capacity, streams, tau, &w)
		warm += w.evals
	}
	t.Logf("occupancy sums over 200 solves each: cold %d against plain bisection's %d, warm %d against %d", cold, plainCold, warm, plainWarm)
	if 2*warm > plainWarm || warm > 20*200 {
		t.Errorf("warm solves took %d occupancy sums, plain bisection %d: want at most half, and at most 20 a solve", warm, plainWarm)
	}
	if cold > plainCold {
		t.Errorf("cold solves took %d occupancy sums, plain bisection %d: want no more", cold, plainCold)
	}
}

// FuzzCheLRU checks the solver against the reference bit for bit on
// instances decoded from the input: three bytes a stream (size
// exponent and mantissa, rate), a capacity as a fraction of the active
// bytes, and a hint, tried raw and as a multiple of the cold solve's τ.
func FuzzCheLRU(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, capFrac, hint float64) {
		if len(data) > 3*400 {
			data = data[:3*400]
		}
		streams := make([]FluidStream, len(data)/3)
		for i := range streams {
			b := data[3*i : 3*i+3]
			streams[i].Size = unit.Bytes(math.Ldexp(1+float64(b[1])/256, int(b[0]%52)))
			if b[2] != 0 {
				streams[i].Rate = unit.Bandwidth(math.Ldexp(1+float64(b[2]&15)/16, int(b[2]>>4)*3))
			}
		}
		capacity := activeBytes(streams) * unit.Bytes(capFrac)
		var w CheWork
		_, tau := CheLRUInto(nil, capacity, streams, 0, &w)
		for _, h := range []float64{hint, tau * hint, tau} {
			if i, got, want := sameHits(capacity, streams, h, &w); i >= 0 {
				t.Fatalf("capacity %v, hint %v: stream %d hit %#x, reference %#x",
					capacity, h, i, math.Float64bits(got), math.Float64bits(want))
			}
		}
	})
}
