// Package stats provides the summary statistics the evaluation harness
// reports: means, percentiles, sampled CDFs, time-weighted averages and
// timeline series.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Kahan is a compensated (Kahan-Babuška) floating-point accumulator:
// the running compensation term recovers the low-order bits each Add
// would otherwise discard, so long sums of small increments stay exact
// to within one ulp of the true total regardless of how the increments
// are ordered or batched. The zero value is an empty sum.
type Kahan struct {
	sum float64
	c   float64 // running compensation for lost low-order bits
}

// Add accumulates v.
func (k *Kahan) Add(v float64) {
	t := k.sum + v
	if math.Abs(k.sum) >= math.Abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *Kahan) Sum() float64 { return k.sum + k.c }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Max returns the maximum of xs; -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// RelativeError returns |got-want| / |want|. If want is 0 it returns
// |got| so the caller can still threshold it.
func RelativeError(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// SampleCDF evaluates the empirical CDF at a fixed set of fractions
// (e.g. deciles), returning one value per requested fraction.
func SampleCDF(xs []float64, fractions []float64) []float64 {
	out := make([]float64, len(fractions))
	for i, f := range fractions {
		out[i] = Percentile(xs, f*100)
	}
	return out
}

// TimeWeighted accumulates a step function of time and reports its
// time-weighted average: the value v(t) is held constant between
// consecutive Observe calls.
type TimeWeighted struct {
	started   bool
	lastT     float64
	lastV     float64
	weightSum float64
	areaSum   float64
}

// Observe records that the observed value became v at time t. Times must
// be non-decreasing; Observe panics on time travel, which would silently
// corrupt every downstream metric.
func (tw *TimeWeighted) Observe(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.lastT, tw.lastV = t, v
		return
	}
	if t < tw.lastT {
		panic(fmt.Sprintf("stats: time going backwards: %v < %v", t, tw.lastT))
	}
	dt := t - tw.lastT
	tw.areaSum += tw.lastV * dt
	tw.weightSum += dt
	tw.lastT, tw.lastV = t, v
}

// Finish closes the step function at time t and returns the time-weighted
// average. A series with zero total duration returns the last value.
func (tw *TimeWeighted) Finish(t float64) float64 {
	if !tw.started {
		return 0
	}
	tw.Observe(t, tw.lastV)
	if tw.weightSum == 0 {
		return tw.lastV
	}
	return tw.areaSum / tw.weightSum
}

// Series is an append-only (time, value) sequence used for the paper's
// timeline figures (Figure 2, 9, 11, 13).
type Series struct {
	Name   string
	Times  []float64
	Values []float64
}

// Append adds a point. Times should be non-decreasing.
func (s *Series) Append(t, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.Times) }

// At returns the i-th point.
func (s *Series) At(i int) (t, v float64) { return s.Times[i], s.Values[i] }

// MeanValue returns the time-weighted mean of the series (holding each
// value until the next sample).
func (s *Series) MeanValue() float64 {
	if len(s.Times) == 0 {
		return 0
	}
	var tw TimeWeighted
	for i := range s.Times {
		tw.Observe(s.Times[i], s.Values[i])
	}
	return tw.Finish(s.Times[len(s.Times)-1])
}

// MaxValue returns the maximum sampled value.
func (s *Series) MaxValue() float64 { return Max(s.Values) }

// Downsample returns at most n points spread evenly over the series,
// always including the first and last point. Useful for printing long
// timelines.
func (s *Series) Downsample(n int) *Series {
	out := &Series{Name: s.Name}
	if s.Len() == 0 || n <= 0 {
		return out
	}
	if s.Len() <= n {
		out.Times = append(out.Times, s.Times...)
		out.Values = append(out.Values, s.Values...)
		return out
	}
	if n == 1 {
		out.Append(s.Times[0], s.Values[0])
		return out
	}
	for i := 0; i < n; i++ {
		idx := i * (s.Len() - 1) / (n - 1)
		out.Append(s.Times[idx], s.Values[idx])
	}
	return out
}
