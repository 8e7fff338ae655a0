package sim

import (
	"math/bits"
	"testing"
)

// TestResizeGrowsGeometrically: a buffer grown one element at a time
// from 1 to 1,000 reallocates O(log n) times, not once per growth.
func TestResizeGrowsGeometrically(t *testing.T) {
	const n = 1000
	var buf []int
	reallocs := 0
	for i := 1; i <= n; i++ {
		before := cap(buf)
		if got := resize(&buf, i); len(got) != i {
			t.Fatalf("resize(%d) has length %d", i, len(got))
		}
		if cap(buf) != before {
			reallocs++
		}
	}
	if limit := bits.Len(n) + 1; reallocs > limit {
		t.Errorf("%d reallocations growing 1 → %d, want at most %d", reallocs, n, limit)
	}
}
