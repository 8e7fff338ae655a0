package remoteio

import (
	"math"
	"math/bits"
)

// sumLimbs sizes exactSum: a float64 occupies binary places 2^-1074
// through 2^1023, 2,098 bits, and 34 limbs hold 2,176, so 78 bits of
// headroom absorb the carries of up to 2^78 maximal addends.
const sumLimbs = 34

// exactSum is the exact sum of a multiset of non-negative finite
// float64 values, held as one fixed-point integer in units of 2^-1074
// (the smallest subnormal), least significant limb first. Adding or
// removing a value is integer arithmetic on at most a few limbs, so it
// never rounds: the total depends only on which values are in the set,
// not on the order they arrived or left in. Reading it rounds once.
//
// The zero value is the empty sum. Callers pass only values v with
// v >= 0 and v finite, and subtract only values they added.
type exactSum [sumLimbs]uint64

// place splits a non-negative finite v into v = m·2^(at-1074).
func place(v float64) (m uint64, at uint) {
	b := math.Float64bits(v)
	exp := uint(b>>52) & 0x7ff
	m = b & (1<<52 - 1)
	if exp == 0 { // subnormal or zero: no implicit bit
		return m, 0
	}
	return m | 1<<52, exp - 1
}

// add adds v to the sum.
func (s *exactSum) add(v float64) {
	m, at := place(v)
	q, r := at/64, at%64
	var c uint64
	s[q], c = bits.Add64(s[q], m<<r, 0)
	s[q+1], c = bits.Add64(s[q+1], m>>(64-r), c) // r == 0 shifts out to 0
	for i := q + 2; c != 0; i++ {
		s[i], c = bits.Add64(s[i], 0, c)
	}
}

// sub removes v, which must have been added, from the sum.
func (s *exactSum) sub(v float64) {
	m, at := place(v)
	q, r := at/64, at%64
	var b uint64
	s[q], b = bits.Sub64(s[q], m<<r, 0)
	s[q+1], b = bits.Sub64(s[q+1], m>>(64-r), b)
	for i := q + 2; b != 0; i++ {
		s[i], b = bits.Sub64(s[i], 0, b)
	}
}

// round returns the sum rounded to the nearest float64, ties to even,
// and to +Inf past the largest finite value.
func (s *exactSum) round() float64 {
	i := sumLimbs - 1
	for i > 0 && s[i] == 0 {
		i--
	}
	if i == 0 {
		// One word converts with correct rounding, and the scaling is
		// exact: under 2^53 units the word converts exactly and every
		// multiple of 2^-1074 that small is representable; above, the
		// result is a normal number.
		return math.Ldexp(float64(s[0]), -1074)
	}
	// The top 64 significant bits, with every bit below them folded
	// into the lowest one (round to odd): converting that word rounds
	// to nearest even exactly as the whole integer would.
	lz := uint(bits.LeadingZeros64(s[i]))
	top := s[i]<<lz | s[i-1]>>(64-lz)
	sticky := s[i-1] << lz
	for _, w := range s[:i-1] {
		sticky |= w
	}
	if sticky != 0 {
		top |= 1
	}
	return math.Ldexp(float64(top), 64*i-int(lz)-1074)
}
