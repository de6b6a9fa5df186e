package fairdist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pops/internal/edgecolor"
)

// figure3Perm is the permutation of Figure 3 of the paper (POPS(3,3)):
// processor i's packet is destined to figure3Perm[i].
var figure3Perm = []int{4, 8, 3, 6, 0, 2, 7, 1, 5}

func randPerm(n int, rng *rand.Rand) []int { return rng.Perm(n) }

func TestDelta1Delta2(t *testing.T) {
	ls := &ListSystem{NSources: 3, NTargets: 3, Lists: [][]int{{0, 1}, {2, 0}, {1, 2}}}
	if ls.Delta1() != 2 {
		t.Fatalf("Delta1 = %d, want 2", ls.Delta1())
	}
	if ls.Delta2() != 2 {
		t.Fatalf("Delta2 = %d, want 2", ls.Delta2())
	}
}

func TestCheckRejectsMalformed(t *testing.T) {
	cases := []*ListSystem{
		{NSources: 2, NTargets: 2, Lists: [][]int{{0}}},         // wrong list count
		{NSources: 2, NTargets: 2, Lists: [][]int{{0}, {0, 1}}}, // ragged lists
		{NSources: 2, NTargets: 2, Lists: [][]int{{0}, {2}}},    // value outside S
		{NSources: -1, NTargets: 2, Lists: nil},                 // negative size
		{NSources: 2, NTargets: 2, Lists: [][]int{{-1}, {0}}},   // negative value
	}
	for i, ls := range cases {
		if err := ls.Check(); err == nil {
			t.Errorf("case %d: malformed system accepted", i)
		}
	}
}

func TestIsProper(t *testing.T) {
	// Every element appears Δ1 = 2 times; 3 | 3·2 fails -> wait 6/3=2 ok.
	proper := &ListSystem{NSources: 3, NTargets: 3, Lists: [][]int{{0, 1}, {2, 0}, {1, 2}}}
	if ok, err := proper.IsProper(); err != nil || !ok {
		t.Fatalf("proper system rejected: ok=%v err=%v", ok, err)
	}
	// Element 0 appears 3 times, element 1 once.
	unbalanced := &ListSystem{NSources: 3, NTargets: 3, Lists: [][]int{{0, 0}, {0, 1}, {2, 2}}}
	if ok, _ := unbalanced.IsProper(); ok {
		t.Fatal("unbalanced system accepted")
	}
	// n2 does not divide n1·Δ1: 4 does not divide 6.
	indiv := &ListSystem{NSources: 3, NTargets: 4, Lists: [][]int{{0, 1}, {2, 0}, {1, 2}}}
	if ok, _ := indiv.IsProper(); ok {
		t.Fatal("non-dividing target count accepted")
	}
}

// TestMultiplicity: l(s, s'), the number of times s' occurs in list L_s,
// is the multiplicity of edge (s, s') in the Theorem 1 graph.
func TestMultiplicity(t *testing.T) {
	ls := &ListSystem{NSources: 2, NTargets: 2, Lists: [][]int{{0, 0, 1}, {1, 1, 0}}}
	edges := ls.Graph().EdgeList()
	multiplicity := func(s, sp int) int {
		n := 0
		for _, e := range edges {
			if e.L == s && e.R == sp {
				n++
			}
		}
		return n
	}
	if multiplicity(0, 0) != 2 || multiplicity(0, 1) != 1 || multiplicity(1, 1) != 2 {
		t.Fatal("Multiplicity values wrong")
	}
}

func TestGraphEdgeOrder(t *testing.T) {
	ls := &ListSystem{NSources: 2, NTargets: 2, Lists: [][]int{{1, 0}, {0, 1}}}
	g := ls.Graph()
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
	// Entry (s, i) must be edge s*Δ1+i.
	if e := g.Edge(0); e.L != 0 || e.R != 1 {
		t.Fatalf("edge 0 = %+v, want (0,1)", e)
	}
	if e := g.Edge(3); e.L != 1 || e.R != 1 {
		t.Fatalf("edge 3 = %+v, want (1,1)", e)
	}
}

func TestFairDistributionSquareCase(t *testing.T) {
	// The paper's running case d = g = √n, via Figure 3's permutation.
	ls, err := FromPermutation(3, 3, figure3Perm)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := ls.IsProper(); err != nil || !ok {
		t.Fatalf("Figure 3 list system not proper: ok=%v err=%v", ok, err)
	}
	for _, algo := range []edgecolor.Algorithm{edgecolor.RepeatedMatching, edgecolor.EulerSplitDC, edgecolor.Insertion} {
		f, err := ls.FairDistribution(algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if err := ls.Verify(f); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
	}
}

func TestFairDistributionSmallD(t *testing.T) {
	// d < g: targets = g, Δ2 = d.
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct{ d, g int }{{2, 4}, {3, 5}, {2, 8}, {1, 6}, {4, 4}} {
		pi := randPerm(tc.d*tc.g, rng)
		ls, err := FromPermutation(tc.d, tc.g, pi)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ls.FairDistribution(edgecolor.EulerSplitDC)
		if err != nil {
			t.Fatalf("d=%d g=%d: %v", tc.d, tc.g, err)
		}
		if err := ls.Verify(f); err != nil {
			t.Fatalf("d=%d g=%d: %v", tc.d, tc.g, err)
		}
	}
}

func TestFairDistributionLargeD(t *testing.T) {
	// d > g: targets = d, Δ2 = g.
	rng := rand.New(rand.NewSource(32))
	for _, tc := range []struct{ d, g int }{{4, 2}, {6, 3}, {8, 2}, {5, 4}, {9, 3}} {
		pi := randPerm(tc.d*tc.g, rng)
		ls, err := FromPermutation(tc.d, tc.g, pi)
		if err != nil {
			t.Fatal(err)
		}
		if ls.NTargets != tc.d {
			t.Fatalf("d=%d g=%d: targets = %d, want %d", tc.d, tc.g, ls.NTargets, tc.d)
		}
		f, err := ls.FairDistribution(edgecolor.EulerSplitDC)
		if err != nil {
			t.Fatalf("d=%d g=%d: %v", tc.d, tc.g, err)
		}
		if err := ls.Verify(f); err != nil {
			t.Fatalf("d=%d g=%d: %v", tc.d, tc.g, err)
		}
	}
}

func TestFairDistributionRejectsImproper(t *testing.T) {
	ls := &ListSystem{NSources: 3, NTargets: 3, Lists: [][]int{{0, 0}, {0, 1}, {2, 2}}}
	if _, err := ls.FairDistribution(edgecolor.EulerSplitDC); err == nil {
		t.Fatal("improper system accepted")
	}
}

func TestFairDistributionRejectsUnsatisfiable(t *testing.T) {
	// Δ1 = 2 > |T| = 1: condition (1) cannot hold.
	ls := &ListSystem{NSources: 2, NTargets: 1, Lists: [][]int{{0, 1}, {1, 0}}}
	if _, err := ls.FairDistribution(edgecolor.EulerSplitDC); err == nil {
		t.Fatal("unsatisfiable system accepted")
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	ls := &ListSystem{NSources: 3, NTargets: 3, Lists: [][]int{{0, 1}, {2, 0}, {1, 2}}}
	good, err := ls.FairDistribution(edgecolor.RepeatedMatching)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Verify(good); err != nil {
		t.Fatal(err)
	}

	// Condition (1): repeat a target within a row.
	bad1 := [][]int{{0, 0}, {1, 2}, {2, 1}}
	if err := ls.Verify(bad1); err == nil {
		t.Fatal("condition (1) violation accepted")
	}
	// Condition (2): unbalanced loads.
	bad2 := [][]int{{0, 1}, {0, 1}, {0, 1}}
	if err := ls.Verify(bad2); err == nil {
		t.Fatal("condition (2) violation accepted")
	}
	// Condition (3): craft equal list values mapped to the same target.
	// Entries (0,0) and (1,1) both have list value 0.
	bad3 := [][]int{{0, 1}, {2, 0}, {1, 2}}
	if bad3[0][0] != bad3[1][1] {
		bad3[1][1] = bad3[0][0]
		bad3[1][0] = 2 // keep row injective
	}
	if err := ls.Verify(bad3); err == nil {
		t.Fatal("condition (3) violation accepted")
	}
	// Wrong shape.
	if err := ls.Verify([][]int{{0, 1}}); err == nil {
		t.Fatal("wrong row count accepted")
	}
	if err := ls.Verify([][]int{{0}, {1}, {2}}); err == nil {
		t.Fatal("wrong row length accepted")
	}
	// Target out of range.
	if err := ls.Verify([][]int{{0, 5}, {1, 2}, {2, 0}}); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestFromPermutationValidation(t *testing.T) {
	if _, err := FromPermutation(0, 3, nil); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := FromPermutation(2, 2, []int{0, 1}); err == nil {
		t.Fatal("short permutation accepted")
	}
	if _, err := FromPermutation(2, 2, []int{0, 1, 2, 9}); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestFromPermutationListValues(t *testing.T) {
	// POPS(2,2), π = reversal: groups of destinations.
	pi := []int{3, 2, 1, 0}
	ls, err := FromPermutation(2, 2, pi)
	if err != nil {
		t.Fatal(err)
	}
	// Group 0 packets go to 3,2 (group 1); group 1 packets to 1,0 (group 0).
	want := [][]int{{1, 1}, {0, 0}}
	for h := range want {
		for i := range want[h] {
			if ls.Lists[h][i] != want[h][i] {
				t.Fatalf("Lists = %v, want %v", ls.Lists, want)
			}
		}
	}
}

func TestFairDistributionPropertyRandomPermutations(t *testing.T) {
	f := func(dSeed, gSeed uint8, seed int64) bool {
		d := int(dSeed)%8 + 1
		g := int(gSeed)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		pi := randPerm(d*g, rng)
		ls, err := FromPermutation(d, g, pi)
		if err != nil {
			return false
		}
		fd, err := ls.FairDistribution(edgecolor.EulerSplitDC)
		if err != nil {
			return false
		}
		return ls.Verify(fd) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
