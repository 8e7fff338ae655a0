// Package cache implements the cache substrate of SiloD's data manager:
// block-granularity cache pools with the policies the paper evaluates
// (uniform caching, LRU) plus analytical fluid models of both, used by
// the large-scale simulator where per-block simulation is intractable.
//
// Datasets are modeled at block granularity (default 64 MB) rather than
// item granularity; uniform caching's hit ratio c/d is independent of
// granularity, and blocks keep 20 TB datasets tractable (see DESIGN.md,
// substitutions).
package cache

import "math/bits"

// Bitset is a fixed-size bitmap over block IDs. SiloD's data manager
// maintains one per job to track accessed items within an epoch (§6,
// "delayed effectiveness").
type Bitset struct {
	words []uint64
	n     int
	count int
}

// NewBitset returns an empty bitset over n blocks.
func NewBitset(n int) *Bitset {
	if n < 0 {
		n = 0
	}
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Count reports the number of set bits.
func (b *Bitset) Count() int { return b.count }

// Test reports whether bit i is set. Out-of-range bits read as false.
func (b *Bitset) Test(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Set sets bit i and reports whether it was previously clear.
func (b *Bitset) Set(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	w, m := i/64, uint64(1)<<(uint(i)%64)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.count++
	return true
}

// Clear clears bit i and reports whether it was previously set.
func (b *Bitset) Clear(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	w, m := i/64, uint64(1)<<(uint(i)%64)
	if b.words[w]&m == 0 {
		return false
	}
	b.words[w] &^= m
	b.count--
	return true
}

// nthSet returns the index of the k-th set bit in index order (k
// counts from 0), or -1 when fewer than k+1 bits are set. It skips
// whole words by population count, then drops the lowest set bits of
// the word that holds the answer until the k-th is lowest.
func (b *Bitset) nthSet(k int) int {
	for wi, w := range b.words {
		c := bits.OnesCount64(w)
		if k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			w &= w - 1
		}
		return wi*64 + bits.TrailingZeros64(w)
	}
	return -1
}

// Reset clears all bits.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.count = 0
}
