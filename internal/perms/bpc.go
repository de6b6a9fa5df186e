package perms

import "fmt"

// BPC is a bit-permute-complement permutation on n = 2^k processors
// (Sahni 2000a): the destination index is obtained by rearranging the bits
// of the source index and complementing a subset of them. Formally, writing
// i = [i_{k−1} … i_0]₂, bit j of π(i) is i_{BitPerm[j]}, XOR-ed with bit j
// of Complement.
type BPC struct {
	Bits       int    // k: index width; n = 2^k
	BitPerm    []int  // destination bit j takes source bit BitPerm[j]
	Complement uint64 // mask of destination bits to flip
}

// NewBPC validates the parameters and returns the BPC descriptor.
func NewBPC(bits int, bitPerm []int, complement uint64) (*BPC, error) {
	if bits < 0 || bits > 62 {
		return nil, fmt.Errorf("perms: BPC bit width %d out of range", bits)
	}
	if len(bitPerm) != bits {
		return nil, fmt.Errorf("perms: BPC bit permutation has %d entries, want %d", len(bitPerm), bits)
	}
	if err := Validate(bitPerm); err != nil {
		return nil, fmt.Errorf("perms: BPC bit permutation invalid: %w", err)
	}
	if bits < 64 && complement>>uint(bits) != 0 {
		return nil, fmt.Errorf("perms: BPC complement mask %#x has bits above width %d", complement, bits)
	}
	return &BPC{Bits: bits, BitPerm: bitPerm, Complement: complement}, nil
}

// N returns the number of processors, 2^Bits.
func (b *BPC) N() int { return 1 << uint(b.Bits) }

// Apply returns π(i) for a single index.
func (b *BPC) Apply(i int) int {
	out := 0
	for j := 0; j < b.Bits; j++ {
		bit := (i >> uint(b.BitPerm[j])) & 1
		out |= bit << uint(j)
	}
	return out ^ int(b.Complement)
}

// Permutation materializes the full permutation vector.
func (b *BPC) Permutation() []int {
	pi := make([]int, b.N())
	for i := range pi {
		pi[i] = b.Apply(i)
	}
	return pi
}

// HypercubeExchange returns the BPC permutation π(i) = i ⊕ 2^bit — the
// primitive SIMD hypercube communication pattern of Sahni 2000b, Theorem 1.
func HypercubeExchange(bits, bit int) (*BPC, error) {
	if bit < 0 || bit >= bits {
		return nil, fmt.Errorf("perms: exchange bit %d outside width %d", bit, bits)
	}
	return NewBPC(bits, Identity(bits), 1<<uint(bit))
}

// BitReversal returns the BPC permutation reversing the order of the index
// bits (the FFT data exchange pattern).
func BitReversal(bits int) (*BPC, error) {
	perm := make([]int, bits)
	for j := range perm {
		perm[j] = bits - 1 - j
	}
	return NewBPC(bits, perm, 0)
}

// PerfectShuffle returns the BPC permutation that rotates the index bits
// left by one (π(i) = 2i mod (n−1) style shuffle).
func PerfectShuffle(bits int) (*BPC, error) {
	perm := make([]int, bits)
	for j := range perm {
		perm[j] = ((j - 1) + bits) % bits
	}
	return NewBPC(bits, perm, 0)
}
