// Package hypercube simulates an n = 2^D processor SIMD hypercube on a
// POPS(d, g) network with d·g = n, reproducing the setting of Sahni 2000b.
// The primitive hypercube step — every processor exchanges a value with its
// neighbor across bit b — is the permutation π(i) = i ⊕ 2^b; Theorem 1 of
// Sahni 2000b routes it in 2⌈d/g⌉ slots under the identity mapping of
// hypercube processors onto POPS processors. Mei & Rizzi's Theorem 2 shows
// the same bound holds under ANY one-to-one mapping, since every permutation
// routes in 2⌈d/g⌉ slots; the Machine type takes an arbitrary mapping to
// demonstrate exactly that corollary (experiment E8).
//
// On top of the exchange primitive the package implements the fundamental
// data operations of Sahni 2000b: data sum, prefix sum, consecutive
// (sub-cube) sum, adjacent sum, data shift, and broadcast.
package hypercube

import (
	"fmt"

	"pops/internal/core"
	"pops/internal/perms"
	"pops/internal/simd"
)

// Machine is a SIMD hypercube with one int64 register per processor,
// executed on a POPS network.
type Machine struct {
	Bits int // hypercube dimension D; n = 2^D
	// Mapping[h] is the POPS processor simulating hypercube processor h.
	Mapping []int
	// Values[h] is the register of hypercube processor h.
	Values []int64

	inv    []int // POPS processor -> hypercube processor
	router *simd.Router
}

// New builds a machine with n = 2^bits processors on POPS(d, g), d·g = n.
// mapping maps hypercube processors to POPS processors; nil means identity.
func New(bits, d, g int, mapping []int, opts core.Options) (*Machine, error) {
	if bits < 0 || bits > 30 {
		return nil, fmt.Errorf("hypercube: dimension %d out of range", bits)
	}
	n := 1 << uint(bits)
	if d*g != n {
		return nil, fmt.Errorf("hypercube: POPS(%d,%d) has %d processors, hypercube needs %d", d, g, d*g, n)
	}
	if mapping == nil {
		mapping = perms.Identity(n)
	}
	if len(mapping) != n {
		return nil, fmt.Errorf("hypercube: mapping length %d, want %d", len(mapping), n)
	}
	if err := perms.Validate(mapping); err != nil {
		return nil, fmt.Errorf("hypercube: mapping: %w", err)
	}
	r, err := simd.NewRouter(d, g, opts)
	if err != nil {
		return nil, err
	}
	return &Machine{
		Bits:    bits,
		Mapping: append([]int(nil), mapping...),
		Values:  make([]int64, n),
		inv:     perms.Inverse(mapping),
		router:  r,
	}, nil
}

// N returns the number of processors.
func (m *Machine) N() int { return 1 << uint(m.Bits) }

// SlotsUsed returns the accumulated POPS slot cost of all operations.
func (m *Machine) SlotsUsed() int { return m.router.Slots }

// Load sets the machine registers.
func (m *Machine) Load(vals []int64) error {
	if len(vals) != m.N() {
		return fmt.Errorf("hypercube: loading %d values into %d processors", len(vals), m.N())
	}
	copy(m.Values, vals)
	return nil
}

// popsPermutation lifts a hypercube-index permutation hpi to POPS processors
// through the mapping: popsPi = Mapping ∘ hpi ∘ Mapping⁻¹.
func (m *Machine) popsPermutation(hpi []int) []int {
	n := m.N()
	out := make([]int, n)
	for p := 0; p < n; p++ {
		out[p] = m.Mapping[hpi[m.inv[p]]]
	}
	return out
}

// permuteValues routes hypercube values along the hypercube permutation hpi,
// paying POPS slots for popsPermutation(hpi).
func (m *Machine) permuteValues(hpi []int) error {
	n := m.N()
	popsVals := make([]int64, n)
	for h, v := range m.Values {
		popsVals[m.Mapping[h]] = v
	}
	if err := m.router.Permute(popsVals, m.popsPermutation(hpi)); err != nil {
		return err
	}
	for h := range m.Values {
		m.Values[h] = popsVals[m.Mapping[h]]
	}
	return nil
}

// exchangedValues returns, for every hypercube processor, the register value
// of its neighbor across the given bit, routed on the POPS network in
// 2⌈d/g⌉ slots (1 slot when d = 1).
func (m *Machine) exchangedValues(bit int) ([]int64, error) {
	if bit < 0 || bit >= m.Bits {
		return nil, fmt.Errorf("hypercube: bit %d outside dimension %d", bit, m.Bits)
	}
	ex, err := perms.HypercubeExchange(m.Bits, bit)
	if err != nil {
		return nil, err
	}
	hpi := ex.Permutation()
	saved := append([]int64(nil), m.Values...)
	if err := m.permuteValues(hpi); err != nil {
		return nil, err
	}
	got := append([]int64(nil), m.Values...)
	copy(m.Values, saved)
	return got, nil
}

// Reduce combines all registers with the associative and commutative
// operator op, leaving the result in every processor, using D exchange
// rounds (the classic hypercube all-reduce) at D·2⌈d/g⌉ POPS slots.
func (m *Machine) Reduce(op func(a, b int64) int64) (int64, error) {
	for b := 0; b < m.Bits; b++ {
		nb, err := m.exchangedValues(b)
		if err != nil {
			return 0, err
		}
		for h := range m.Values {
			m.Values[h] = op(m.Values[h], nb[h])
		}
	}
	return m.Values[0], nil
}

// DataSum leaves the sum of all registers in every processor — the data-sum
// primitive of Sahni 2000b.
func (m *Machine) DataSum() (int64, error) {
	return m.Reduce(func(a, b int64) int64 { return a + b })
}

// PrefixSum replaces every register with the inclusive prefix sum
// v[0] + … + v[h] (in hypercube index order), using the standard
// (prefix, total) scan: D exchange rounds.
func (m *Machine) PrefixSum() error {
	prefix := append([]int64(nil), m.Values...)
	total := append([]int64(nil), m.Values...)
	for b := 0; b < m.Bits; b++ {
		copy(m.Values, total)
		nbTotal, err := m.exchangedValues(b)
		if err != nil {
			return err
		}
		for h := range total {
			if h&(1<<uint(b)) != 0 {
				prefix[h] += nbTotal[h]
			}
			total[h] += nbTotal[h]
		}
	}
	copy(m.Values, prefix)
	return nil
}

// Shift moves every register s positions up (v'[h] = v[(h−s) mod n]),
// routed as one permutation.
func (m *Machine) Shift(s int) error {
	return m.permuteValues(perms.CyclicShift(m.N(), s))
}

// Broadcast copies hypercube processor src's register everywhere in a single
// slot using the POPS one-to-all primitive.
func (m *Machine) Broadcast(src int) error {
	if src < 0 || src >= m.N() {
		return fmt.Errorf("hypercube: broadcast source %d out of range", src)
	}
	n := m.N()
	popsVals := make([]int64, n)
	for h, v := range m.Values {
		popsVals[m.Mapping[h]] = v
	}
	if err := m.router.Broadcast(popsVals, m.Mapping[src]); err != nil {
		return err
	}
	for h := range m.Values {
		m.Values[h] = popsVals[m.Mapping[h]]
	}
	return nil
}
