// Package policy is the badmod slice for the dataflow analyzers: a
// float sum in map iteration order, a // silod:pure function that
// reads the wall clock, and a stale delta-memo: an IgnoredViewFields declaration vouching
// for a solver that lost its // silod:pure annotation.
package policy

import "time"

// RequiredIO sums in map iteration order — the pre-PR-5 form the
// maporder analyzer exists to keep out of the tree.
func RequiredIO(rates map[string]float64) float64 {
	var total float64
	for _, r := range rates {
		total += r
	}
	return total
}

// Score claims purity but consults the wall clock.
//
// silod:pure
func Score(x float64) float64 {
	_ = time.Now()
	return x
}

// IgnoredViewFields declares a delta-aware solve skip: engines reuse a
// memoized assignment when only the masked fields changed, which is
// byte-identical only while the solver it vouches for stays pure. The
// vouched solver below has no silod:pure annotation — the stale-memo
// shape purecheck exists to catch.
//
// silod:pure-requires: solveDelta
func IgnoredViewFields() uint32 { return 1 }

// solveDelta is the solver the memo rests on; its silod:pure
// annotation was dropped, so the skip above is no longer vouched for.
func solveDelta(x float64) float64 { return x * 2 }
