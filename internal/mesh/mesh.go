// Package mesh simulates an R×C SIMD mesh with wraparound (a torus) on a
// POPS(d, g) network with d·g = R·C, reproducing the setting of Sahni 2000b,
// Theorem 2. Element (i, j) lives at mesh processor i·C + j; the four
// primitive SIMD steps move data one position up/down/left/right with
// wraparound, each a permutation routed in 2⌈d/g⌉ slots (1 when d = 1) —
// under any one-to-one mapping of mesh processors onto POPS processors, by
// Mei & Rizzi's Theorem 2.
package mesh

import (
	"fmt"

	"pops/internal/core"
	"pops/internal/perms"
	"pops/internal/simd"
)

// Machine is a SIMD torus with one int64 register per processor, executed
// on a POPS network.
type Machine struct {
	Rows, Cols int
	// Mapping[m] is the POPS processor simulating mesh processor m.
	Mapping []int
	// Values[m] is the register of mesh processor m (row-major).
	Values []int64

	inv    []int
	router *simd.Router
}

// New builds an R×C torus on POPS(d, g) with d·g = R·C. mapping may be nil
// for the identity.
func New(rows, cols, d, g int, mapping []int, opts core.Options) (*Machine, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("mesh: invalid size %dx%d", rows, cols)
	}
	n := rows * cols
	if d*g != n {
		return nil, fmt.Errorf("mesh: POPS(%d,%d) has %d processors, mesh needs %d", d, g, d*g, n)
	}
	if mapping == nil {
		mapping = perms.Identity(n)
	}
	if len(mapping) != n {
		return nil, fmt.Errorf("mesh: mapping length %d, want %d", len(mapping), n)
	}
	if err := perms.Validate(mapping); err != nil {
		return nil, fmt.Errorf("mesh: mapping: %w", err)
	}
	r, err := simd.NewRouter(d, g, opts)
	if err != nil {
		return nil, err
	}
	return &Machine{
		Rows:    rows,
		Cols:    cols,
		Mapping: append([]int(nil), mapping...),
		Values:  make([]int64, n),
		inv:     perms.Inverse(mapping),
		router:  r,
	}, nil
}

// N returns the number of processors.
func (m *Machine) N() int { return m.Rows * m.Cols }

// SlotsUsed returns the accumulated POPS slot cost.
func (m *Machine) SlotsUsed() int { return m.router.Slots }

// Load sets the registers from a row-major slice.
func (m *Machine) Load(vals []int64) error {
	if len(vals) != m.N() {
		return fmt.Errorf("mesh: loading %d values into %d processors", len(vals), m.N())
	}
	copy(m.Values, vals)
	return nil
}

// permute routes mesh values along the mesh-index permutation mpi.
func (m *Machine) permute(mpi []int) error {
	n := m.N()
	popsPi := make([]int, n)
	popsVals := make([]int64, n)
	for p := 0; p < n; p++ {
		popsPi[p] = m.Mapping[mpi[m.inv[p]]]
	}
	for idx, v := range m.Values {
		popsVals[m.Mapping[idx]] = v
	}
	if err := m.router.Permute(popsVals, popsPi); err != nil {
		return err
	}
	for idx := range m.Values {
		m.Values[idx] = popsVals[m.Mapping[idx]]
	}
	return nil
}

// Shift moves every element dr rows down and dc columns right with
// wraparound, as one routed permutation. (dr, dc) = (±1, 0) / (0, ±1) are
// the primitive SIMD mesh steps.
func (m *Machine) Shift(dr, dc int) error {
	mpi, err := perms.MeshShift(m.Rows, m.Cols, dr, dc)
	if err != nil {
		return err
	}
	return m.permute(mpi)
}

// Transpose transposes a square torus in place, as one routed permutation —
// the operation whose ⌈d/g⌉ slot optimum Sahni 2000a establishes (our
// general router spends 2⌈d/g⌉).
func (m *Machine) Transpose() error {
	if m.Rows != m.Cols {
		return fmt.Errorf("mesh: transpose of non-square %dx%d torus", m.Rows, m.Cols)
	}
	return m.permute(perms.Transpose(m.Rows, m.Cols))
}

// RowSum leaves in every processor the sum of its row, using Cols−1
// left-rotations with accumulation.
func (m *Machine) RowSum() error {
	acc := append([]int64(nil), m.Values...)
	for s := 1; s < m.Cols; s++ {
		if err := m.Shift(0, -1); err != nil {
			return err
		}
		for i := range acc {
			acc[i] += m.Values[i]
		}
	}
	copy(m.Values, acc)
	return nil
}

// StepCost returns the slot cost of one primitive mesh step on this
// machine's network: 2⌈d/g⌉, or 1 when d = 1.
func (m *Machine) StepCost() int {
	return core.OptimalSlots(m.router.Net.D, m.router.Net.G)
}
