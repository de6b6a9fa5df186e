// Package perms provides the permutation families used throughout the POPS
// routing literature: the generic utilities (validation, inverse,
// equality), the random and derangement generators used for sweeps, and
// the structured families the related work routes one by one — vector
// reversal, matrix transpose, BPC permutations (Sahni 2000a), hypercube
// bit-b neighbor exchanges and mesh wraparound shifts (Sahni 2000b), and the
// block permutations realizing the lower-bound classes of Propositions 2–3.
package perms

import (
	"fmt"
	"math/rand"
)

// Validate checks that pi is a permutation of {0, …, len(pi)−1}.
func Validate(pi []int) error {
	return ValidateInto(pi, make([]bool, len(pi)))
}

// ValidateInto is Validate with a caller-provided scratch slice, so repeated
// validations (the planner's batch path) need not allocate. seen must have
// length at least len(pi); its first len(pi) entries are overwritten.
func ValidateInto(pi []int, seen []bool) error {
	seen = seen[:len(pi)]
	for i := range seen {
		seen[i] = false
	}
	for i, v := range pi {
		if v < 0 || v >= len(pi) {
			return fmt.Errorf("perms: π(%d) = %d outside [0,%d)", i, v, len(pi))
		}
		if seen[v] {
			return fmt.Errorf("perms: value %d appears twice", v)
		}
		seen[v] = true
	}
	return nil
}

// Identity returns the identity permutation on n elements.
func Identity(n int) []int {
	pi := make([]int, n)
	for i := range pi {
		pi[i] = i
	}
	return pi
}

// Inverse returns σ with σ(π(i)) = i. It panics if pi is not a permutation
// (callers validate external input with Validate first).
func Inverse(pi []int) []int {
	inv := make([]int, len(pi))
	for i, v := range pi {
		inv[v] = i
	}
	return inv
}

// Equal reports whether two permutations are identical.
func Equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Random returns a uniformly random permutation of n elements.
func Random(n int, rng *rand.Rand) []int { return rng.Perm(n) }

// RandomDerangement returns a random permutation with no fixed point, via
// Sattolo's algorithm (which samples uniformly among n-cycles; every n-cycle
// is a derangement). It panics for n < 2, where no derangement exists.
func RandomDerangement(n int, rng *rand.Rand) []int {
	if n < 2 {
		panic(fmt.Sprintf("perms: no derangement of %d elements", n))
	}
	pi := Identity(n)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		pi[i], pi[j] = pi[j], pi[i]
	}
	return pi
}

// VectorReversal returns π(i) = n−1−i (Sahni 2000a). For even g it meets
// the 2⌈d/g⌉ lower bound of Proposition 2.
func VectorReversal(n int) []int {
	pi := make([]int, n)
	for i := range pi {
		pi[i] = n - 1 - i
	}
	return pi
}

// Transpose returns the matrix transpose permutation for an r×c matrix laid
// out row-major over n = r·c processors: element (i, j) at processor i·c+j
// moves to position (j, i) at processor j·r+i.
func Transpose(r, c int) []int {
	pi := make([]int, r*c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			pi[i*c+j] = j*r + i
		}
	}
	return pi
}

// Staircase returns the single-slot-routable permutation on POPS(d, g) that
// sends packet i of group h to processor i of group (h+i) mod g (needs
// d ≤ g): every (source group, destination group) coupler carries at most
// one packet.
func Staircase(d, g int) []int {
	pi := make([]int, d*g)
	for h := 0; h < g; h++ {
		for i := 0; i < d; i++ {
			pi[h*d+i] = ((h+i)%g)*d + i
		}
	}
	return pi
}

// CyclicShift returns π(i) = (i + s) mod n.
func CyclicShift(n, s int) []int {
	pi := make([]int, n)
	s = ((s % n) + n) % n
	for i := range pi {
		pi[i] = (i + s) % n
	}
	return pi
}
