// Fixture for the purecheck analyzer: a // silod:pure function must
// not read its clock parameter, touch package state, use goroutines
// or channels, fold map iterations into floats, or call anything that
// is not itself vetted (annotated, pure-stdlib, or vouched for with
// assume=). Forwarding the clock to a vetted callee is the accepted
// pattern, as is calling the pure parts of the stdlib.
package purecheck

import (
	"fmt"
	"math"
	"time"

	"repro/internal/unit"
)

var epoch float64

// Policy is the interface seam the assume option vouches for.
type Policy interface {
	Score(x float64) float64
}

// score is vetted pure.
//
// silod:pure
func score(x float64) float64 { return math.Sqrt(x) }

// rawScore has no annotation.
func rawScore(x float64) float64 { return x * x }

// schedule forwards its clock to a vetted callee: the accepted
// pattern — the parameter is judged where it is read, not where it
// passes through.
//
// silod:pure
func schedule(now unit.Time, x float64) float64 {
	return tick(now) + score(x)
}

// tick actually reads the clock it was handed.
//
// silod:pure
func tick(now unit.Time) float64 {
	return float64(now) // want `reads wall-clock parameter now`
}

// leaky touches mutable package state.
//
// silod:pure
func leaky(x float64) float64 {
	epoch += x // want `touches package-level variable epoch`
	return x
}

// concurrent uses goroutines and channels.
//
// silod:pure
func concurrent(ch chan int) int {
	go score(1) // want `starts a goroutine`
	ch <- 1     // want `sends on a channel`
	return <-ch // want `receives from a channel`
}

// callsUnvetted calls a same-package function nobody annotated.
//
// silod:pure
func callsUnvetted(x float64) float64 {
	return rawScore(x) // want `calls purecheck\.rawScore, which is not annotated`
}

// box is a generic type with one vetted method and one not.
type box[T any] struct{ v T }

// silod:pure
func (b *box[T]) get() T { return b.v }

func (b *box[T]) set(v T) { b.v = v }

// callsGeneric calls methods of an instantiated generic type: each
// resolves to its declaration and is judged by its annotation.
//
// silod:pure
func callsGeneric(b *box[float64]) float64 {
	b.set(1)       // want `calls purecheck\.set, which is not annotated`
	return b.get() // ok: the declaration is annotated
}

// callsClock reaches outside the pure-stdlib allowlist.
//
// silod:pure
func callsClock() float64 {
	_ = time.Now() // want `calls time\.Now \(reads the wall clock\), which is outside the pure-stdlib allowlist`
	_ = fmt.Sprintf("%d", 1) // ok: fmt formatting is on the allowlist
	return 0
}

// applyUnvetted calls through an interface with no assume vow.
//
// silod:pure
func applyUnvetted(p Policy, x float64) float64 {
	return p.Score(x) // want `calls Policy\.Score through an interface the checker cannot resolve`
}

// applyVetted carries the vow: every runtime Policy is vetted
// elsewhere, so the dynamic call is accepted.
//
// silod:pure assume=Policy
func applyVetted(p Policy, x float64) float64 {
	return p.Score(x) // ok: assume=Policy
}

// foldMap inherits the maporder rules with the silod:pure prefix.
//
// silod:pure
func foldMap(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v // want `silod:pure function foldMap: float accumulation into s`
	}
	return s
}

// silod:pure frobnicate=yes
func typo() {} // want `unrecognized silod:pure option "frobnicate=yes"`

// Vouches names a function that does not exist.
//
// silod:pure-requires: noSuchFunc
func Vouches() {} // want `silod:pure-requires names noSuchFunc, which does not resolve`

// PureScorer vouches for one vetted and one unvetted function.
//
// silod:pure-requires: score, rawScore
func PureScorer() {} // want `silod:pure-requires: rawScore is not annotated`
