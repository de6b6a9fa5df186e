package mesh

import (
	"math/rand"
	"testing"

	"pops/internal/core"
	"pops/internal/perms"
)

// at returns the register of element (i, j).
func at(m *Machine, i, j int) int64 { return m.Values[i*m.Cols+j] }

func seq(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i)
	}
	return v
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3, 1, 3, nil, core.Options{}); err == nil {
		t.Fatal("empty mesh accepted")
	}
	if _, err := New(2, 3, 2, 2, nil, core.Options{}); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := New(2, 2, 2, 2, []int{0, 1, 2}, core.Options{}); err == nil {
		t.Fatal("short mapping accepted")
	}
	if _, err := New(2, 2, 2, 2, []int{0, 0, 1, 2}, core.Options{}); err == nil {
		t.Fatal("bad mapping accepted")
	}
}

func TestShiftDirections(t *testing.T) {
	// 2x3 torus on POPS(2,3).
	m, err := New(2, 3, 2, 3, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(seq(6)); err != nil {
		t.Fatal(err)
	}
	// Shift down: (i,j) -> (i+1,j). After it, (1,0) must hold old (0,0)=0.
	if err := m.Shift(1, 0); err != nil {
		t.Fatal(err)
	}
	if at(m, 1, 0) != 0 || at(m, 0, 0) != 3 {
		t.Fatalf("down shift wrong: %v", m.Values)
	}
	// Shift back up restores.
	if err := m.Shift(-1, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Values {
		if v != int64(i) {
			t.Fatalf("up shift did not undo down shift: %v", m.Values)
		}
	}
	// Right shift with wraparound: (0,2) -> (0,0).
	if err := m.Shift(0, 1); err != nil {
		t.Fatal(err)
	}
	if at(m, 0, 0) != 2 {
		t.Fatalf("right shift wrong: %v", m.Values)
	}
}

func TestShiftCostMatchesTheorem(t *testing.T) {
	for _, tc := range []struct{ rows, cols, d, g int }{
		{2, 2, 2, 2}, {4, 4, 8, 2}, {4, 2, 2, 4}, {3, 3, 9, 1}, {2, 2, 1, 4},
	} {
		m, err := New(tc.rows, tc.cols, tc.d, tc.g, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(seq(m.N())); err != nil {
			t.Fatal(err)
		}
		if err := m.Shift(1, 0); err != nil {
			t.Fatalf("%dx%d on POPS(%d,%d): %v", tc.rows, tc.cols, tc.d, tc.g, err)
		}
		if got, want := m.SlotsUsed(), core.OptimalSlots(tc.d, tc.g); got != want {
			t.Fatalf("%dx%d on POPS(%d,%d): slots = %d, want %d", tc.rows, tc.cols, tc.d, tc.g, got, want)
		}
	}
}

func TestTranspose(t *testing.T) {
	m, err := New(3, 3, 3, 3, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(seq(9)); err != nil {
		t.Fatal(err)
	}
	if err := m.Transpose(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if at(m, i, j) != int64(j*3+i) {
				t.Fatalf("transpose wrong at (%d,%d): %v", i, j, m.Values)
			}
		}
	}
	// Non-square transpose is rejected.
	m2, err := New(2, 3, 2, 3, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Transpose(); err == nil {
		t.Fatal("non-square transpose accepted")
	}
}

func TestRowSum(t *testing.T) {
	m, err := New(2, 3, 3, 2, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load([]int64{1, 2, 3, 10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if err := m.RowSum(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if at(m, 0, j) != 6 {
			t.Fatalf("row 0 sum = %v", m.Values)
		}
		if at(m, 1, j) != 60 {
			t.Fatalf("row 1 sum = %v", m.Values)
		}
	}
	// Cost: (cols-1) primitive steps.
	if got, want := m.SlotsUsed(), 2*m.StepCost(); got != want {
		t.Fatalf("slots = %d, want %d", got, want)
	}
}

func TestMappingIndependence(t *testing.T) {
	// Same data movement, same cost, any mapping (E8 for the mesh).
	rng := rand.New(rand.NewSource(9))
	rows, cols, d, g := 4, 4, 4, 4
	for _, mapping := range [][]int{nil, perms.Random(16, rng)} {
		m, err := New(rows, cols, d, g, mapping, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Load(seq(16)); err != nil {
			t.Fatal(err)
		}
		if err := m.Shift(1, 1); err != nil {
			t.Fatal(err)
		}
		if at(m, 1, 1) != 0 {
			t.Fatalf("diagonal shift wrong under mapping: %v", m.Values)
		}
		if got, want := m.SlotsUsed(), core.OptimalSlots(d, g); got != want {
			t.Fatalf("slots = %d, want %d", got, want)
		}
	}
}

func TestLoadValidation(t *testing.T) {
	m, err := New(2, 2, 2, 2, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load([]int64{1}); err == nil {
		t.Fatal("short load accepted")
	}
}
