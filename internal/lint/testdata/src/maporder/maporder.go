// Fixture for the maporder analyzer: values derived from ranging over
// a map must not reach order-sensitive sinks (float accumulation,
// unsorted slice escape, metric interning, emission). Sorted-key
// iteration, per-slot updates and integer counters are accepted.
package maporder

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
)

type group struct {
	size  float64
	cache float64
	rate  float64
}

type probe struct {
	groups map[string]*group
	keys   []string
}

// requiredIO is frozen in its pre-PR-5 form: summing over the group
// map directly makes the float accumulation order — and with it the
// feasibility verdict at the bisection boundary — depend on
// per-process map randomness. PR 5 rewrote this to scan p.keys; the
// analyzer exists so the old form cannot come back.
func (p *probe) requiredIO() float64 {
	var total float64
	for _, g := range p.groups {
		miss := 1 - g.cache/g.size
		total += g.rate * miss // want `float accumulation into total in map iteration order`
	}
	return total
}

// requiredIOSorted is the PR-5 fix: first-encounter key order makes
// the sum deterministic.
func (p *probe) requiredIOSorted() float64 {
	var total float64
	for _, key := range p.keys { // ok: slice range, not map range
		g := p.groups[key]
		total += g.rate * (1 - g.cache/g.size)
	}
	return total
}

// sortedKeys is the sweep idiom: collect, sort, then accumulate.
func sortedKeys(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // ok: sorted below, before the sum
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

// escapes returns map-derived values in random order.
func escapes(m map[string]float64) []string {
	var names []string
	for k := range m {
		names = append(names, k) // want `appending map-iteration-derived values to "names" without sorting`
	}
	return names
}

// counts shows the accepted non-float cases: integer accumulation is
// exact in any order, and writes through a tainted index are per-slot
// updates, not order-dependent folds.
func counts(m map[string]int, taxed map[string]float64, out map[string]float64) int {
	n := 0
	for _, v := range m {
		n += v // ok: integer addition is associative
	}
	for id, tax := range taxed {
		out[id] -= tax // ok: per-slot update keyed by the same id
	}
	return n
}

// emit prints in map order.
func emit(m map[string]float64) {
	for k, v := range m {
		fmt.Println(k, v) // want `reaches fmt\.Println: output line order depends on per-process randomness`
	}
}

// perKey is a literal in a package-level initializer: it belongs to no
// function, and its loops are checked all the same.
var perKey = func(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v // want `float accumulation into s in map iteration order`
	}
	return s
}

// nested reaches the sum through two map loops at once: one finding per
// site, not one per loop.
func nested(mm map[string]map[string]float64) float64 {
	var s float64
	for _, inner := range mm {
		for _, v := range inner {
			s += v // want `float accumulation into s in map iteration order`
		}
	}
	return s
}

// intern creates metric series in map order, randomizing the series
// creation order the registry observes.
func intern(r *metrics.Registry, shards map[string]int) {
	for range shards {
		r.Counter("silod_fix_shards_total") // want `interning a metric series \(Registry\.Counter\) inside a map-range loop`
	}
}
