package keysort

import (
	"math"
	"slices"
	"testing"
)

// TestFloatKeys: Asc's keys rise strictly with the score and Desc's
// fall, -0 and +0 share a key, and NaN has none.
func TestFloatKeys(t *testing.T) {
	ordered := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		0, math.SmallestNonzeroFloat64, 1, math.Nextafter(1, 2), math.MaxFloat64, math.Inf(1)}
	for k := 1; k < len(ordered); k++ {
		a0, _ := Asc(ordered[k-1])
		a1, _ := Asc(ordered[k])
		d0, _ := Desc(ordered[k-1])
		d1, _ := Desc(ordered[k])
		if !(a0 < a1) || !(d0 > d1) {
			t.Errorf("%v < %v: Asc keys %#x, %#x; Desc keys %#x, %#x", ordered[k-1], ordered[k], a0, a1, d0, d1)
		}
	}
	pos, _ := Asc(0)
	if neg, _ := Asc(math.Copysign(0, -1)); neg != pos {
		t.Errorf("Asc(-0) = %#x, Asc(+0) = %#x", neg, pos)
	}
	if _, ok := Asc(math.NaN()); ok {
		t.Error("Asc(NaN) has a key")
	}
	if _, ok := Desc(math.NaN()); ok {
		t.Error("Desc(NaN) has a key")
	}
}

// TestSortSettlesRuns: scores one ulp apart share a key above the
// position bits, so the comparator orders them; a NaN sends the slice
// to slices.SortFunc. Both reach slices.SortFunc's order. The policy
// and remoteio tests check every comparator the sort serves.
func TestSortSettlesRuns(t *testing.T) {
	type item struct {
		score float64
		id    int
	}
	cmp := func(a, b item) int {
		switch {
		case a.score < b.score:
			return -1
		case a.score > b.score:
			return 1
		}
		return a.id - b.id
	}
	key := func(x item) (uint64, bool) { return Asc(x.score) }
	var o Sorter[item]
	for _, special := range []float64{1, math.NaN()} {
		var e []item
		for i := 0; i < 64; i++ {
			x := 1.0
			for u := (i * 7) % 5; u > 0; u-- {
				x = math.Nextafter(x, 2)
			}
			e = append(e, item{x, (i * 37) % 64})
		}
		e[10].score = special
		want := slices.Clone(e)
		slices.SortFunc(want, cmp)
		o.Sort(e, key, cmp)
		for k := range want {
			if e[k].id != want[k].id {
				t.Fatalf("special %v: position %d holds id %d, slices.SortFunc id %d", special, k, e[k].id, want[k].id)
			}
		}
	}
}
