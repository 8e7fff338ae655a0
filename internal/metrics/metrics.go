// Package metrics is the cluster-wide observability subsystem: a
// dependency-free metrics registry with atomic counters, gauges and
// fixed-bucket histograms, plus a virtual-clock-aware timeline recorder
// for structured per-job events.
//
// Design goals, in order:
//
//   - Lock-free increments. The hot paths this package instruments —
//     per-block cache accesses, remote-IO reservations, simulator
//     integration steps — run millions of times per second. Counter.Add,
//     Gauge.Set and Histogram.Observe are single atomic operations with
//     no map lookups: callers intern a handle once (Registry.Counter et
//     al.) and hit only the atomic afterwards.
//
//   - Nil-safety. A nil *Counter / *Gauge / *Histogram / *Timeline is a
//     valid no-op receiver, so instrumentation sites need no "is
//     monitoring enabled" branches: components hold zero-value handle
//     structs until someone wires a Registry in.
//
//   - Determinism. Snapshots and Prometheus text render in a stable
//     order (name, then label fingerprint) so golden tests and diffs
//     work.
//
// See docs/observability.md for naming conventions and label rules.
package metrics

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically non-decreasing integer metric. The zero
// value is ready to use; a nil Counter no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Negative n is ignored: counters only go up.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value reports the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 metric. The zero value is ready to
// use; a nil Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge (atomic via CAS).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value reports the current value (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with Prometheus "le" (less than
// or equal) semantics: bucket i counts observations <= bounds[i], with
// one extra overflow bucket for +Inf. Observe is lock-free. A nil
// Histogram no-ops.
type Histogram struct {
	bounds []float64 // sorted, strictly increasing upper bounds
	counts []atomic.Int64
	sum    Gauge // atomic float adder
	count  atomic.Int64
}

// newHistogram builds a histogram over the given bucket upper bounds.
// Bounds are copied, sorted and deduplicated.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	dedup := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			dedup = append(dedup, b)
		}
	}
	return &Histogram{bounds: dedup, counts: make([]atomic.Int64, len(dedup)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v is the "le" bucket; all larger bounds include it
	// cumulatively at snapshot time.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of all observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// cumulative returns the cumulative per-bucket counts, one entry per
// bound plus the +Inf bucket.
func (h *Histogram) cumulative() []int64 {
	out := make([]int64, len(h.counts))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		out[i] = run
	}
	return out
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start and multiplying by factor — the standard shape for latency and
// JCT histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}
