// Package bitvec provides the dense bit-vector membership sets used by the
// allocation-free matching engines. A Vec packs 64 membership bits per
// word, so the hot membership tests (visited-edge marks during Euler tours,
// the perfect matcher's dummy entries and covered nodes) index whole words
// instead of hashing into map[int]bool.
//
// Vecs are plain []uint64 slices so callers can keep them inside reusable
// arenas: Resize grows in place when capacity allows and clears the live
// prefix, making the steady state allocation-free.
package bitvec

import "math/bits"

// Vec is a fixed-capacity bit vector. The value semantics are those of a
// slice: copies alias the same words.
type Vec []uint64

const wordBits = 64

// Words returns the number of 64-bit words needed for n bits.
func Words(n int) int { return (n + wordBits - 1) / wordBits }

// Resize returns a zeroed Vec with capacity for n bits, reusing v's storage
// when it is large enough. Use it to recycle a scratch set across calls:
//
//	v = v.Resize(m) // all bits clear, no allocation once warm
func (v Vec) Resize(n int) Vec {
	w := Words(n)
	if cap(v) < w {
		return make(Vec, w)
	}
	v = v[:w]
	v.Reset()
	return v
}

// Reset clears every bit.
func (v Vec) Reset() {
	for i := range v {
		v[i] = 0
	}
}

// Set sets bit i.
func (v Vec) Set(i int) { v[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Test reports whether bit i is set.
func (v Vec) Test(i int) bool { return v[i/wordBits]&(1<<(uint(i)%wordBits)) != 0 }

// Count returns the number of set bits among the first n.
func (v Vec) Count(n int) int {
	full := n / wordBits
	total := 0
	for i := 0; i < full; i++ {
		total += bits.OnesCount64(v[i])
	}
	if rem := n % wordBits; rem > 0 {
		total += bits.OnesCount64(v[full] & (1<<uint(rem) - 1))
	}
	return total
}
