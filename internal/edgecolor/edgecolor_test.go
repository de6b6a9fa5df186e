package edgecolor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pops/internal/graph"
)

func randomRegular(n, k int, rng *rand.Rand) *graph.Bipartite {
	b := graph.New(n, n)
	for j := 0; j < k; j++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			b.AddEdge(i, perm[i])
		}
	}
	return b
}

var allAlgorithms = []Algorithm{RepeatedMatching, EulerSplitDC, Insertion}

// factorize 1-factorizes b on a fresh arena and returns every edge's class.
func factorize(b *graph.Bipartite, algo Algorithm) ([]int, error) {
	colors := make([]int, b.NumEdges())
	return colors, NewFactorizer().FactorizeInto(colors, b, algo)
}

// colorInsertion Δ-colors b with the insertion backend on a fresh arena.
func colorInsertion(b *graph.Bipartite) ([]int, int, error) {
	colors := make([]int, b.NumEdges())
	c, err := NewFactorizer().colorInsertionInto(colors, b)
	return colors, c, err
}

// checkFactorization fails unless colors splits b into k perfect matchings.
func checkFactorization(t *testing.T, b *graph.Bipartite, colors []int, k int) {
	t.Helper()
	if err := Verify(b, colors, k, b.NLeft()); err != nil {
		t.Fatal(err)
	}
}

func TestFactorizeAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct{ n, k int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 4}, {5, 3}, {8, 8}, {16, 5}, {9, 7}, {12, 1},
	}
	for _, algo := range allAlgorithms {
		for _, tc := range cases {
			b := randomRegular(tc.n, tc.k, rng)
			colors, err := factorize(b, algo)
			if err != nil {
				t.Fatalf("%v n=%d k=%d: %v", algo, tc.n, tc.k, err)
			}
			checkFactorization(t, b, colors, tc.k)
		}
	}
}

func TestFactorizeParallelEdgeBundles(t *testing.T) {
	// d parallel copies of a cyclic permutation: the demand multigraph of the
	// adversarial "whole group to next group" routing instance.
	for _, algo := range allAlgorithms {
		for _, d := range []int{1, 2, 5, 8} {
			g := 6
			b := graph.New(g, g)
			for c := 0; c < d; c++ {
				for h := 0; h < g; h++ {
					b.AddEdge(h, (h+1)%g)
				}
			}
			colors, err := factorize(b, algo)
			if err != nil {
				t.Fatalf("%v d=%d: %v", algo, d, err)
			}
			checkFactorization(t, b, colors, d)
		}
	}
}

func TestFactorizeRejectsIrregular(t *testing.T) {
	b := graph.New(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1)
	for _, algo := range []Algorithm{RepeatedMatching, EulerSplitDC} {
		if _, err := factorize(b, algo); err == nil {
			t.Fatalf("%v accepted irregular graph", algo)
		}
	}
}

func TestFactorizeRejectsUnequalSides(t *testing.T) {
	if _, err := factorize(graph.New(2, 3), RepeatedMatching); err == nil {
		t.Fatal("unequal sides accepted")
	}
}

func TestFactorizeUnknownAlgorithm(t *testing.T) {
	b := randomRegular(3, 2, rand.New(rand.NewSource(1)))
	if _, err := factorize(b, Algorithm(99)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	if RepeatedMatching.String() != "repeated-matching" ||
		EulerSplitDC.String() != "euler-split" ||
		Insertion.String() != "insertion" {
		t.Fatal("Algorithm String values changed")
	}
	if Algorithm(42).String() != "Algorithm(42)" {
		t.Fatal("unknown algorithm String")
	}
}

func TestColorInsertionNonRegular(t *testing.T) {
	// Arbitrary bipartite multigraph: Δ colors must suffice (König).
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		nL := rng.Intn(10) + 1
		nR := rng.Intn(10) + 1
		m := rng.Intn(6 * (nL + nR))
		b := graph.New(nL, nR)
		for e := 0; e < m; e++ {
			b.AddEdge(rng.Intn(nL), rng.Intn(nR))
		}
		colors, c, err := colorInsertion(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if c != b.MaxDegree() {
			t.Fatalf("trial %d: used %d colors, Δ=%d", trial, c, b.MaxDegree())
		}
		if err := Verify(b, colors, max(c, 1), -1); err != nil && m > 0 {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestColorInsertionEmptyGraph(t *testing.T) {
	b := graph.New(3, 3)
	colors, c, err := colorInsertion(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(colors) != 0 || c != 0 {
		t.Fatalf("empty graph: %d colors array, Δ=%d", len(colors), c)
	}
}

func TestColorInsertionTriggersAlternatingPath(t *testing.T) {
	// Force the swap: edges inserted so that the free colors at the two
	// endpoints of a later edge are disjoint.
	b := graph.New(2, 2)
	b.AddEdge(0, 0) // gets color 0
	b.AddEdge(1, 1) // gets color 0
	b.AddEdge(1, 0) // color 1 at both
	b.AddEdge(0, 1) // L0 free {1}? no: L0 has 0; R1 has 0,1 -> needs swap path
	b.AddEdge(0, 0)
	b.AddEdge(1, 1)
	colors, c, err := colorInsertion(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(b, colors, c, -1); err != nil {
		t.Fatal(err)
	}
	if c != 3 {
		t.Fatalf("Δ = %d, want 3", c)
	}
}

func TestColorInsertionProperty(t *testing.T) {
	f := func(nSeed, kSeed uint8, seed int64) bool {
		n := int(nSeed)%16 + 1
		k := int(kSeed)%6 + 1
		b := randomRegular(n, k, rand.New(rand.NewSource(seed)))
		colors, c, err := colorInsertion(b)
		if err != nil || c != k {
			return false
		}
		return Verify(b, colors, c, n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedExactClassSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []struct{ n, k, colors int }{
		{4, 2, 4},   // d < g case shape: class size 2
		{6, 3, 6},   // class size 3
		{8, 8, 8},   // C == k: the plain 1-factorization
		{5, 1, 5},   // class size 1
		{6, 2, 3},   // C between k and n: class size 4
		{6, 2, 4},   // class size 3
		{9, 3, 9},   // class size 3
		{4, 3, 12},  // C > n: class size 1
		{3, 2, 6},   // C = 2n: class size 1
		{12, 4, 16}, // class size 3
		// Class size not dividing n: the open class carries across
		// factors and the alternating-path swaps run.
		{8, 3, 8},    // class size 3
		{7, 5, 7},    // class size 5 > n/2: the factor shrinks to the class
		{64, 12, 64}, // class size 12
		{8, 3, 4},    // class size 6
	}
	for _, algo := range allAlgorithms {
		for _, tc := range cases {
			b := randomRegular(tc.n, tc.k, rng)
			colors, err := Balanced(b, tc.colors, algo)
			if err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: %v", algo, tc.n, tc.k, tc.colors, err)
			}
			want := tc.n * tc.k / tc.colors
			if err := Verify(b, colors, tc.colors, want); err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: %v", algo, tc.n, tc.k, tc.colors, err)
			}
		}
	}
}

func TestBalancedRejectsBadParameters(t *testing.T) {
	b := randomRegular(4, 3, rand.New(rand.NewSource(2)))
	if _, err := Balanced(b, 2, RepeatedMatching); err == nil {
		t.Fatal("accepted fewer colors than degree")
	}
	if _, err := Balanced(b, 5, RepeatedMatching); err == nil {
		t.Fatal("accepted color count not dividing edge count")
	}
	if _, err := Balanced(graph.New(2, 3), 2, RepeatedMatching); err == nil {
		t.Fatal("accepted unequal sides")
	}
	irr := graph.New(2, 2)
	irr.AddEdge(0, 0)
	if _, err := Balanced(irr, 2, RepeatedMatching); err == nil {
		t.Fatal("accepted irregular graph")
	}
}

func TestBalancedProperty(t *testing.T) {
	// Random (n, k) with a random admissible C ≥ k, C | n·k — C = n is the
	// Theorem 2 d<g configuration, and most draws have a class size that
	// does not divide n — on every backend, one reused arena each.
	arenas := map[Algorithm]*Factorizer{}
	for _, algo := range allAlgorithms {
		arenas[algo] = NewFactorizer()
	}
	f := func(nSeed, kSeed, cSeed uint8, seed int64) bool {
		n := int(nSeed)%12 + 1
		k := int(kSeed)%n + 1
		colorCount := balancedColorCount(n, k, int(cSeed))
		b := randomRegular(n, k, rand.New(rand.NewSource(seed)))
		for _, algo := range allAlgorithms {
			colors := make([]int, b.NumEdges())
			if err := arenas[algo].BalancedInto(colors, b, colorCount, algo); err != nil {
				t.Logf("%v n=%d k=%d C=%d: %v", algo, n, k, colorCount, err)
				return false
			}
			if err := Verify(b, colors, colorCount, n*k/colorCount); err != nil {
				t.Logf("%v n=%d k=%d C=%d: %v", algo, n, k, colorCount, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// balancedColorCount picks a color count C for a Balanced instance on
// k-regular n-node sides: pick indexes the admissible counts (k ≤ C,
// C | n·k), with C = n whenever n is admissible and pick is even.
func balancedColorCount(n, k, pick int) int {
	if pick%2 == 0 && n >= k {
		return n
	}
	var admissible []int
	for c := k; c <= n*k; c++ {
		if (n*k)%c == 0 {
			admissible = append(admissible, c)
		}
	}
	return admissible[pick%len(admissible)]
}

func TestVerifyCatchesViolations(t *testing.T) {
	b := graph.New(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(1, 1)

	if err := Verify(b, []int{0, 0, 1, 1}, 2, -1); err == nil {
		t.Fatal("double color at left node accepted")
	}
	if err := Verify(b, []int{0, 1, 0, 1}, 2, -1); err == nil {
		t.Fatal("double color at right node accepted")
	}
	if err := Verify(b, []int{0, 1}, 2, -1); err == nil {
		t.Fatal("wrong length accepted")
	}
	if err := Verify(b, []int{0, 1, 2, 0}, 2, -1); err == nil {
		t.Fatal("out-of-range color accepted")
	}
	if err := Verify(b, []int{0, 1, 1, 0}, 2, 1); err == nil {
		t.Fatal("wrong class size accepted")
	}
}

func TestVerifyAcceptsProper(t *testing.T) {
	b := graph.New(2, 2)
	b.AddEdge(0, 0) // color 0
	b.AddEdge(0, 1) // color 1
	b.AddEdge(1, 0) // color 1
	b.AddEdge(1, 1) // color 0
	if err := Verify(b, []int{0, 1, 1, 0}, 2, 2); err != nil {
		t.Fatalf("proper balanced coloring rejected: %v", err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
