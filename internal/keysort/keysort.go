// Package keysort sorts slices by an exact comparator with one integer
// sort of prefix keys, so the ranked orders of the scheduling policies
// (score, ties to a unique ID) rarely call their comparator at all.
package keysort

import (
	"math"
	"slices"
)

// Sorter holds Sort's buffers, reused across calls. The zero value is
// ready to use; a Sorter must not be shared between goroutines.
type Sorter[E any] struct {
	packed []uint64
	from   []E // e as it was before the sort
}

// Sort sorts e by cmp. key(x) is x's prefix key, monotone in cmp
// (cmp(a, b) < 0 implies key(a) <= key(b)), or false for a NaN score,
// which sends all of e to slices.SortFunc(e, cmp): from the same start
// it then compares as before, even where NaN breaks cmp's order.
//
// Each position replaces the low ⌈log₂ n⌉ bits of its key, one
// slices.Sort of those words orders e up to the dropped bits, and cmp
// sorts each run whose keys agree above them (ties and near-ties). For
// a strict total cmp (unique tie IDs) the sorted permutation is unique,
// so this reaches the one slices.SortFunc(e, cmp) reaches.
//
// silod:pure
func (o *Sorter[E]) Sort(e []E, key func(E) (uint64, bool), cmp func(a, b E) int) {
	n := len(e)
	if n < 2 {
		return
	}
	posBits := 0 // ⌈log₂ n⌉: enough bits to number positions 0..n-1
	for 1<<posBits < n {
		posBits++
	}
	mask := uint64(1)<<posBits - 1
	packed := grow(&o.packed, n)
	for k := range e {
		u, ok := key(e[k])
		if !ok {
			slices.SortFunc(e, cmp)
			return
		}
		packed[k] = u&^mask | uint64(k)
	}
	slices.Sort(packed)
	from := grow(&o.from, n)
	copy(from, e)
	for k, p := range packed {
		e[k] = from[p&mask]
	}
	for lo := 0; lo < n-1; {
		hi := lo + 1
		for hi < n && (packed[hi]^packed[lo])&^mask == 0 {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(e[lo:hi], cmp)
		}
		lo = hi
	}
}

// Asc is the ascending prefix key of score x (-0 and +0 share one); it
// is false for NaN.
//
// silod:pure
func Asc(x float64) (uint64, bool) {
	if x != x {
		return 0, false
	}
	if x == 0 {
		x = 0
	}
	// Negative scores' bits rise as they fall, so they are flipped; the
	// others' sign bit is set, above every negative score.
	u := math.Float64bits(x)
	if u>>63 != 0 {
		return ^u, true
	}
	return u | 1<<63, true
}

// Desc is the descending prefix key of score x: Asc's, complemented.
//
// silod:pure
func Desc(x float64) (uint64, bool) {
	u, ok := Asc(x)
	return ^u, ok
}

// grow returns *buf resized to n, doubling its capacity when short.
//
// silod:pure
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n, max(n, 2*cap(*buf)))
	}
	*buf = (*buf)[:n]
	return *buf
}
