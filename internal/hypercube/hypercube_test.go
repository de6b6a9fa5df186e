package hypercube

import (
	"math/rand"
	"testing"

	"pops/internal/core"
	"pops/internal/perms"
)

func seq(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i + 1)
	}
	return v
}

// exchangeCost is the slot cost of one exchange on m's network, 2⌈d/g⌉
// (or 1 when d = 1): what Theorem 2 charges per step.
func exchangeCost(m *Machine) int {
	return core.OptimalSlots(m.router.Net.D, m.router.Net.G)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, 1, 1, nil, core.Options{}); err == nil {
		t.Fatal("negative dimension accepted")
	}
	if _, err := New(3, 2, 2, nil, core.Options{}); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := New(2, 2, 2, []int{0, 1}, core.Options{}); err == nil {
		t.Fatal("short mapping accepted")
	}
	if _, err := New(2, 2, 2, []int{0, 0, 1, 2}, core.Options{}); err == nil {
		t.Fatal("non-permutation mapping accepted")
	}
}

func TestLoadValidation(t *testing.T) {
	m, err := New(2, 2, 2, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load([]int64{1}); err == nil {
		t.Fatal("short load accepted")
	}
}

func TestDataSum(t *testing.T) {
	for _, tc := range []struct{ bits, d, g int }{
		{2, 2, 2}, {3, 2, 4}, {3, 4, 2}, {4, 4, 4}, {2, 1, 4},
	} {
		m, err := New(tc.bits, tc.d, tc.g, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := m.N()
		if err := m.Load(seq(n)); err != nil {
			t.Fatal(err)
		}
		sum, err := m.DataSum()
		if err != nil {
			t.Fatalf("bits=%d d=%d g=%d: %v", tc.bits, tc.d, tc.g, err)
		}
		want := int64(n * (n + 1) / 2)
		if sum != want {
			t.Fatalf("bits=%d: sum = %d, want %d", tc.bits, sum, want)
		}
		// Every processor must hold the sum.
		for h, v := range m.Values {
			if v != want {
				t.Fatalf("processor %d holds %d, want %d", h, v, want)
			}
		}
		// Slot accounting: D exchanges at 2⌈d/g⌉ each.
		if got, want := m.SlotsUsed(), tc.bits*exchangeCost(m); got != want {
			t.Fatalf("slots = %d, want %d", got, want)
		}
	}
}

func TestPrefixSum(t *testing.T) {
	m, err := New(3, 4, 2, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	if err := m.Load(vals); err != nil {
		t.Fatal(err)
	}
	if err := m.PrefixSum(); err != nil {
		t.Fatal(err)
	}
	var run int64
	for h, v := range vals {
		run += v
		if m.Values[h] != run {
			t.Fatalf("prefix[%d] = %d, want %d", h, m.Values[h], run)
		}
	}
}

// TestConsecutiveSum builds Sahni's consecutive-sum primitive from the
// exchange kernel: after exchange rounds on bits 0 and 1, every processor
// holds the sum of its block of 4.
func TestConsecutiveSum(t *testing.T) {
	m, err := New(3, 2, 4, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(seq(8)); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		nb, err := m.exchangedValues(b)
		if err != nil {
			t.Fatal(err)
		}
		for h := range m.Values {
			m.Values[h] += nb[h]
		}
	}
	// Blocks of 4: sums 1+2+3+4 = 10 and 5+6+7+8 = 26.
	for h := 0; h < 4; h++ {
		if m.Values[h] != 10 {
			t.Fatalf("block 0 processor %d = %d, want 10", h, m.Values[h])
		}
	}
	for h := 4; h < 8; h++ {
		if m.Values[h] != 26 {
			t.Fatalf("block 1 processor %d = %d, want 26", h, m.Values[h])
		}
	}
	if got, want := m.SlotsUsed(), 2*exchangeCost(m); got != want {
		t.Fatalf("slots = %d, want %d", got, want)
	}
}

// TestAdjacentSum builds Sahni's adjacent-sum primitive v[h] + v[h+1 mod n]
// from one Shift, routed as a single permutation.
func TestAdjacentSum(t *testing.T) {
	m, err := New(2, 2, 2, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals := []int64{10, 20, 30, 40}
	if err := m.Load(vals); err != nil {
		t.Fatal(err)
	}
	if err := m.Shift(-1); err != nil {
		t.Fatal(err)
	}
	for h := range m.Values {
		m.Values[h] += vals[h]
	}
	want := []int64{30, 50, 70, 50}
	for h := range want {
		if m.Values[h] != want[h] {
			t.Fatalf("adjacent sums = %v, want %v", m.Values, want)
		}
	}
	if got, want := m.SlotsUsed(), exchangeCost(m); got != want {
		t.Fatalf("slots = %d, want %d", got, want)
	}
}

func TestShift(t *testing.T) {
	m, err := New(2, 2, 2, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load([]int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.Shift(1); err != nil {
		t.Fatal(err)
	}
	want := []int64{4, 1, 2, 3}
	for h := range want {
		if m.Values[h] != want[h] {
			t.Fatalf("shifted = %v, want %v", m.Values, want)
		}
	}
}

func TestBroadcastOneSlot(t *testing.T) {
	m, err := New(3, 2, 4, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(seq(8)); err != nil {
		t.Fatal(err)
	}
	if err := m.Broadcast(5); err != nil {
		t.Fatal(err)
	}
	for h, v := range m.Values {
		if v != 6 {
			t.Fatalf("processor %d = %d after broadcast, want 6", h, v)
		}
	}
	if m.SlotsUsed() != 1 {
		t.Fatalf("broadcast cost %d slots, want 1", m.SlotsUsed())
	}
	if err := m.Broadcast(99); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestMappingIndependence(t *testing.T) {
	// The paper's corollary (E8): the simulation works and costs exactly the
	// same under any one-to-one mapping of hypercube onto POPS processors.
	rng := rand.New(rand.NewSource(66))
	bits, d, g := 4, 4, 4
	n := 1 << uint(bits)

	br, err := perms.BitReversal(bits)
	if err != nil {
		t.Fatal(err)
	}
	mappings := map[string][]int{
		"identity":     nil,
		"random":       perms.Random(n, rng),
		"bit-reversal": br.Permutation(),
	}
	var wantSum int64 = int64(n * (n + 1) / 2)
	var slotCosts []int
	for name, mapping := range mappings {
		m, err := New(bits, d, g, mapping, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Load(seq(n)); err != nil {
			t.Fatal(err)
		}
		sum, err := m.DataSum()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sum != wantSum {
			t.Fatalf("%s: sum = %d, want %d", name, sum, wantSum)
		}
		slotCosts = append(slotCosts, m.SlotsUsed())
	}
	for _, c := range slotCosts {
		if c != slotCosts[0] {
			t.Fatalf("slot costs differ across mappings: %v", slotCosts)
		}
	}
}

func TestExchangeBitOutOfRange(t *testing.T) {
	m, err := New(2, 2, 2, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.exchangedValues(5); err == nil {
		t.Fatal("bit out of range accepted")
	}
}

func TestReduceMaxMin(t *testing.T) {
	vals := []int64{5, -2, 17, 3, 9, 0, -8, 11}
	mMax, err := New(3, 2, 4, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mMax.Load(vals); err != nil {
		t.Fatal(err)
	}
	hi, err := mMax.Reduce(func(a, b int64) int64 { return max(a, b) })
	if err != nil {
		t.Fatal(err)
	}
	if hi != 17 {
		t.Fatalf("max = %d, want 17", hi)
	}
	for h, v := range mMax.Values {
		if v != 17 {
			t.Fatalf("processor %d holds %d after all-reduce max", h, v)
		}
	}

	mMin, err := New(3, 2, 4, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mMin.Load(vals); err != nil {
		t.Fatal(err)
	}
	lo, err := mMin.Reduce(func(a, b int64) int64 { return min(a, b) })
	if err != nil {
		t.Fatal(err)
	}
	if lo != -8 {
		t.Fatalf("min = %d, want -8", lo)
	}
	// Any reduction costs what DataSum does: D exchanges.
	if mMin.SlotsUsed() != 3*exchangeCost(mMin) {
		t.Fatalf("slots = %d, want %d", mMin.SlotsUsed(), 3*exchangeCost(mMin))
	}
}
