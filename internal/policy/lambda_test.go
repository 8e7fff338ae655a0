package policy

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/unit"
)

// lambdaCase is one filling round fed straight to the bisection: the
// views carry f*, the dataset and the cached bytes, pe is each job's
// equal-share performance (the reference's perfEqual), and the budgets
// are what is left of cache and remote IO.
type lambdaCase struct {
	views           []core.JobView
	pe              []float64
	remCache, remIO float64
}

// setup loads c into s as storage does before a bisection: every job
// active, one round.
func (c lambdaCase) setup(s *MaxMinSolver) {
	s.index(c.views)
	active := resize(&s.active, len(c.views))
	for i := range c.views {
		s.job[i].pe = c.pe[i]
		active[i] = i
	}
	s.groupRound(active)
}

// reference is refLambdaProbe's 60 halvings on c.
func (c lambdaCase) reference() float64 {
	jobs := make([]refStorageJob, len(c.views))
	for i := range jobs {
		jobs[i] = refStorageJob{view: c.views[i], perfEqual: c.pe[i]}
	}
	return refNewLambdaProbe(jobs).maxFeasibleLambda(c.remCache, c.remIO)
}

// lambdaSpecial are values a round may carry past the solver's guards:
// zeros of both signs, subnormals, the largest float, infinities, NaN
// and a negative number.
var lambdaSpecial = []float64{0, math.Copysign(0, -1), 5e-324, 1e-310, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), -1}

// addJob appends one job on dataset ds to c.
func (c *lambdaCase) addJob(ds int, pe, fstar, size, cached float64) {
	v := mkView(fmt.Sprintf("j%03d", len(c.views)), 1, fmt.Sprintf("ds%02d", ds), unit.Bytes(size), unit.Bandwidth(fstar))
	v.CachedBytes = unit.Bytes(cached)
	c.views = append(c.views, v)
	c.pe = append(c.pe, pe)
}

// ulps returns x moved n float64 bit patterns up.
func ulps(x float64, n int) float64 { return math.Float64frombits(math.Float64bits(x) + uint64(n)) }

// lambdaFamilies names the adversarial rounds genLambdaCase draws.
var lambdaFamilies = []string{
	"plain", "identical groups", "near-ties", "saturates in bracket", "shared datasets",
	"pe = 0", "subnormal λ·pe", "λ* below hi·2⁻⁸", "non-finite inputs", "small integers, some pe < 0",
}

// lambdaTrials is how many rounds of a family a test draws: the small
// integer rounds are cheap, and a wrong answer among them is rare.
func lambdaTrials(family int) int {
	if family == 9 {
		return 5000
	}
	return 300
}

// genLambdaCase draws one round of the given family (an index into
// lambdaFamilies).
func genLambdaCase(rng *rand.Rand, family int) lambdaCase {
	var c lambdaCase
	if family == 9 { // exact ties, and scores and demands that fall as λ grows
		for k := 2 + rng.Intn(4); k > 0; k-- {
			pe := float64(1 + rng.Intn(4))
			if rng.Intn(3) == 0 {
				pe = -pe
			}
			c.addJob(rng.Intn(3), pe, float64(1+rng.Intn(8)), float64(1+rng.Intn(4)), 0)
		}
		c.remCache, c.remIO = float64(rng.Intn(8)), float64(rng.Intn(16))/4
		return c
	}
	n := 1 + rng.Intn(40)
	datasets := 1 + rng.Intn(n)
	if family == 4 {
		datasets = 1 + rng.Intn(3)
	}
	sizes := make([]float64, datasets)
	var total, fsum float64
	for d := range sizes {
		sizes[d] = float64(unit.GiB(float64(1 + rng.Intn(400))))
		total += sizes[d]
	}
	draw := func() (pe, fstar, cached float64, ds int) {
		pe = float64(unit.MBpsOf(1 + 499*rng.Float64()))
		ds = rng.Intn(datasets)
		if rng.Intn(3) == 0 {
			cached = rng.Float64() * sizes[ds]
		}
		return pe, pe * (0.5 + 3.5*rng.Float64()), cached, ds
	}
	switch family {
	case 1, 2: // groups alike at every λ, or 1-4 ulps apart
		pe, fstar, cached, _ := draw()
		m := 1 + rng.Intn(3)
		for d := range sizes {
			sizes[d] = sizes[0]
			p := pe
			if family == 2 {
				p = ulps(pe, rng.Intn(5))
			}
			for k := 0; k < m; k++ {
				c.addJob(d, p, fstar, sizes[d], cached)
				fsum += fstar
			}
		}
	default:
		for i := 0; i < n; i++ {
			pe, fstar, cached, ds := draw()
			switch {
			case family == 5 && rng.Intn(3) == 0:
				pe = 0
				if rng.Intn(2) == 0 {
					fstar = 0
				}
			case family == 6 && rng.Intn(2) == 0:
				pe, fstar = 1e-310*(1+rng.Float64()), 1e-305*rng.Float64()
			case family == 7 && i == 0:
				pe = fstar * 1e-6 // hi = 1e6·(f*/pe of the rest)
			}
			c.addJob(ds, pe, fstar, sizes[ds], cached)
			fsum += fstar
		}
	}
	c.remCache = rng.Float64() * 1.2 * total
	c.remIO = (0.05 + 0.9*rng.Float64()) * fsum
	switch family {
	case 3: // move one job's saturation point just above λ*
		if lambda := c.reference(); lambda > 0 {
			k := rng.Intn(len(c.pe))
			fstar := ulps(lambda*c.pe[k], 1+rng.Intn(1<<uint(rng.Intn(30))))
			c.views[k].Profile.IdealThroughput = unit.Bandwidth(fstar)
		}
	case 8:
		for k := 0; k < 1+rng.Intn(3); k++ {
			v := lambdaSpecial[rng.Intn(len(lambdaSpecial))]
			j := rng.Intn(len(c.pe))
			switch rng.Intn(6) {
			case 0:
				c.pe[j] = v
			case 1:
				c.views[j].Profile.IdealThroughput = unit.Bandwidth(v)
			case 2:
				c.views[j].DatasetSize = unit.Bytes(v)
			case 3:
				c.views[j].CachedBytes = unit.Bytes(v)
			case 4:
				c.remCache = v
			case 5:
				c.remIO = v
			}
		}
	}
	return c
}

// checkLambda compares the product's bisection on c with the
// reference, bit for bit, on every round, and holds it to its
// evaluation bound. pinned reports whether the bisection took the
// pinned path.
func checkLambda(s *MaxMinSolver, c lambdaCase) (pinned bool, err error) {
	want := c.reference()
	c.setup(s)
	probes, splits, evals := s.probes, s.splits, s.evals
	got := s.maxFeasibleLambda(c.remCache, c.remIO)
	if math.Float64bits(got) != math.Float64bits(want) {
		return false, fmt.Errorf("λ = %v (%#x), reference %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
	p, sp, e := s.probes-probes, s.splits-splits, s.evals-evals
	if p > 61 || sp > p || e > p+maxGuesses {
		return false, fmt.Errorf("%d verdicts, %d splits, %d demand sums: want at most 61, the verdicts, and verdicts + %d", p, sp, e, maxGuesses)
	}
	return sp < p, nil
}

// TestMaxFeasibleLambdaMatchesBisection runs one long-lived solver's
// bisection against refLambdaProbe.maxFeasibleLambda on adversarial
// rounds and requires the same λ bit for bit, at most 61 verdicts and
// splits, and at most maxGuesses more demand sums than verdicts. Each
// family but the two that break pinned's premise must reach the pinned
// path.
func TestMaxFeasibleLambdaMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var s MaxMinSolver
	for f, name := range lambdaFamilies {
		pinned := 0
		for trial := 0; trial < lambdaTrials(f); trial++ {
			c := genLambdaCase(rng, f)
			ok, err := checkLambda(&s, c)
			if err != nil {
				t.Fatalf("%s, trial %d (%d jobs): %v", name, trial, len(c.views), err)
			}
			if ok {
				pinned++
			}
		}
		if pinned == 0 && f < 8 {
			t.Errorf("%s: no round pinned its scan order", name)
		}
	}
}

// TestBandwidthSettleMatchesBisection runs the bandwidth program's
// settle on the demand of adversarial rounds (every job's miss drawn
// from [0, 1], or special) against the 60 plain halvings it replaced,
// bit for bit, within the same evaluation bound.
func TestBandwidthSettleMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s MaxMinSolver
	for f, name := range lambdaFamilies {
		for trial := 0; trial < lambdaTrials(f); trial++ {
			c := genLambdaCase(rng, f)
			jobs := make([]rateJob, len(c.pe))
			hi, mono := 0.0, true
			for k := range jobs {
				jobs[k] = rateJob{pe: c.pe[k], fstar: float64(c.views[k].Profile.IdealThroughput), miss: rng.Float64()}
				switch {
				case f == 8 && rng.Intn(4) == 0:
					jobs[k].miss = lambdaSpecial[rng.Intn(len(lambdaSpecial))]
				case f == 9:
					jobs[k].miss = float64(rng.Intn(5)) / 4
				}
				if r := jobs[k].fstar / jobs[k].pe; r > hi {
					hi = r
				}
				mono = mono && finiteNonneg(jobs[k].pe) && finiteNonneg(jobs[k].fstar) && finiteNonneg(jobs[k].miss)
			}
			budget := c.remIO * rng.Float64()
			if f == 9 {
				budget = c.remIO
			}
			want := 0.0
			if demand(jobs, hi) <= budget {
				want = hi
			} else {
				h := hi
				for k := 0; k < 60; k++ {
					mid := (want + h) / 2
					if demand(jobs, mid) <= budget {
						want = mid
					} else {
						h = mid
					}
				}
			}
			got := hi
			probes, evals := s.probes, s.evals
			if r := demand(jobs, hi); !(r <= budget) {
				got = s.settle(&bisection{hi: hi, left: 60}, jobs, budget, 0, r, mono)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s, trial %d: λ = %v, plain bisection %v", name, trial, got, want)
			}
			if p, e := s.probes-probes, s.evals-evals; p > 60 || e > p+maxGuesses {
				t.Fatalf("%s, trial %d: %d verdicts, %d demand sums", name, trial, p, e)
			}
		}
	}
}

// TestPinnedOrderHolds checks the pin directly: once probeToPin reports
// the scan order pinned on [lo, hi], a full split at any λ of that
// bracket leaves the order, every group's cache and every member's
// miss as the pin found them.
func TestPinnedOrderHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s MaxMinSolver
	pinned := 0
	for trial := 0; trial < 2000; trial++ {
		c := genLambdaCase(rng, trial%len(lambdaFamilies))
		c.setup(&s)
		b, _, _, ok := s.probeToPin(c.remCache, c.remIO*(1+1e-9)+1e-6)
		if !ok {
			continue
		}
		pinned++
		order := make([]int, len(s.scan))
		for k, e := range s.scan {
			order[k] = e.idx
		}
		cache := make([]float64, len(s.groups))
		for g := range s.groups {
			cache[g] = s.groups[g].cache
		}
		miss := make([]float64, len(s.members))
		for m := range s.members {
			miss[m] = s.members[m].miss
		}
		lo, hi := math.Float64bits(b.lo), math.Float64bits(b.hi)
		for i := 0; i < 16; i++ {
			lambda := math.Float64frombits(lo + uint64(rng.Int63n(int64(hi-lo+1))))
			s.split(c.remCache, lambda)
			for k, e := range s.scan {
				if e.idx != order[k] {
					t.Fatalf("trial %d: split at %v in pinned [%v, %v] moved group %d from scan position %d", trial, lambda, b.lo, b.hi, order[k], k)
				}
			}
			for g := range s.groups {
				if math.Float64bits(s.groups[g].cache) != math.Float64bits(cache[g]) {
					t.Fatalf("trial %d: group %d cache %v at %v, %v at the pin", trial, g, s.groups[g].cache, lambda, cache[g])
				}
			}
			for m := range s.members {
				if math.Float64bits(s.members[m].miss) != math.Float64bits(miss[m]) {
					t.Fatalf("trial %d: member %d miss %v at %v, %v at the pin", trial, m, s.members[m].miss, lambda, miss[m])
				}
			}
		}
	}
	if pinned < 200 {
		t.Errorf("only %d of 2000 rounds pinned their scan order", pinned)
	}
}

// lambdaCaseFrom decodes a fuzzed round: budgets, then up to 64 jobs of
// six bytes each (dataset, pe, f*, size, cached bytes, an ulp nudge of
// pe). A value byte below 9 picks a special value; otherwise it and
// the next byte scale a unit.
func lambdaCaseFrom(data []byte) lambdaCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	value := func(scale float64) float64 {
		m := next()
		if int(m) < len(lambdaSpecial) {
			return lambdaSpecial[m]
		}
		return (float64(m) + float64(next())/256) * scale
	}
	var c lambdaCase
	c.remCache, c.remIO = value(1e10), value(2e6)
	for len(data) > 0 && len(c.views) < 64 {
		ds := int(next() % 8)
		pe := value(1e6)
		fstar, size, cached := value(1e6), value(1e9), value(1e8)
		c.addJob(ds, ulps(pe, int(next()%5)), fstar, size, cached)
	}
	return c
}

// FuzzMaxFeasibleLambda is TestMaxFeasibleLambdaMatchesBisection on
// fuzzed rounds; tier-1 runs only the committed corpus in
// testdata/fuzz/FuzzMaxFeasibleLambda.
func FuzzMaxFeasibleLambda(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		data := make([]byte, 2+rng.Intn(200))
		rng.Read(data)
		f.Add(data)
	}
	f.Add(binary.LittleEndian.AppendUint64(nil, 0))
	var s MaxMinSolver
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := checkLambda(&s, lambdaCaseFrom(data)); err != nil {
			t.Fatal(err)
		}
	})
}
