package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	b := New(3, 4)
	if b.NLeft() != 3 || b.NRight() != 4 {
		t.Fatalf("sizes = (%d,%d), want (3,4)", b.NLeft(), b.NRight())
	}
	if b.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", b.NumEdges())
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := b.MaxDegree(); got != 0 {
		t.Fatalf("MaxDegree = %d, want 0", got)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestAddEdgeIDsAreDense(t *testing.T) {
	b := New(2, 2)
	for want := 0; want < 5; want++ {
		if id := b.AddEdge(want%2, (want+1)%2); id != want {
			t.Fatalf("AddEdge returned %d, want %d", id, want)
		}
	}
	if b.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", b.NumEdges())
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	cases := [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d,%d) did not panic", c[0], c[1])
				}
			}()
			New(2, 2).AddEdge(c[0], c[1])
		}()
	}
}

func TestParallelEdgesAndMultiplicity(t *testing.T) {
	b := New(2, 2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(0, 0)
	if got := multiplicity(b, 0, 1); got != 2 {
		t.Fatalf("Multiplicity(0,1) = %d, want 2", got)
	}
	if got := multiplicity(b, 0, 0); got != 1 {
		t.Fatalf("Multiplicity(0,0) = %d, want 1", got)
	}
	if got := multiplicity(b, 1, 0); got != 0 {
		t.Fatalf("Multiplicity(1,0) = %d, want 0", got)
	}
	if got := len(b.AdjL(0)); got != 3 {
		t.Fatalf("left node 0 has degree %d, want 3", got)
	}
	if got := len(b.adjR[1]); got != 2 {
		t.Fatalf("right node 1 has degree %d, want 2", got)
	}
}

func TestRegularDetection(t *testing.T) {
	b := Circulant(5, 3)
	if !b.IsRegular(3) {
		t.Fatal("Circulant(5,3) not detected 3-regular")
	}
	if b.IsRegular(2) {
		t.Fatal("Circulant(5,3) claimed 2-regular")
	}
	k, ok := b.RegularDegree()
	if !ok || k != 3 {
		t.Fatalf("RegularDegree = (%d,%v), want (3,true)", k, ok)
	}
	b.AddEdge(0, 0)
	if _, ok := b.RegularDegree(); ok {
		t.Fatal("irregular graph reported regular")
	}
}

// TestCompleteBipartite: the full circulant Circulant(n, n) is K_{n,n},
// one edge for every (l, r) pair.
func TestCompleteBipartite(t *testing.T) {
	b := Circulant(4, 4)
	if b.NumEdges() != 16 {
		t.Fatalf("K(4,4) edges = %d, want 16", b.NumEdges())
	}
	for l := 0; l < 4; l++ {
		for r := 0; r < 4; r++ {
			if multiplicity(b, l, r) != 1 {
				t.Fatalf("K(4,4) joins %d and %d %d times", l, r, multiplicity(b, l, r))
			}
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCirculantStructure(t *testing.T) {
	b := Circulant(4, 2)
	// Left node i joined to i and i+1 mod 4.
	for i := 0; i < 4; i++ {
		if multiplicity(b, i, i) != 1 || multiplicity(b, i, (i+1)%4) != 1 {
			t.Fatalf("circulant row %d malformed", i)
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCirculantDegreeTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Circulant(3,4) did not panic")
		}
	}()
	Circulant(3, 4)
}

func TestCloneIndependence(t *testing.T) {
	b := Circulant(4, 2)
	c := b.Clone()
	c.AddEdge(0, 3)
	if b.NumEdges() == c.NumEdges() {
		t.Fatal("Clone shares edge storage with original")
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("original corrupted by clone edit: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
}

func TestSubgraphByEdges(t *testing.T) {
	b := Circulant(4, 3)
	ids := []int{0, 5, 7}
	s, orig := b.SubgraphByEdges(ids)
	if s.NumEdges() != 3 {
		t.Fatalf("subgraph edges = %d, want 3", s.NumEdges())
	}
	for newID, oldID := range orig {
		if s.Edge(newID) != b.Edge(oldID) {
			t.Fatalf("edge %d maps to %d but endpoints differ", newID, oldID)
		}
	}
}

// TestDegreeSequences: on an irregular graph the adjacency lists carry
// every node's degree, with multiplicity.
func TestDegreeSequences(t *testing.T) {
	b := New(3, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1)
	b.AddEdge(1, 1)
	for l, want := range []int{2, 2, 0} {
		if got := len(b.AdjL(l)); got != want {
			t.Fatalf("left node %d has degree %d, want %d", l, got, want)
		}
	}
	for r, want := range []int{1, 3} {
		if got := len(b.adjR[r]); got != want {
			t.Fatalf("right node %d has degree %d, want %d", r, got, want)
		}
	}
	if b.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", b.MaxDegree())
	}
}

// randomRegular builds a random k-regular bipartite multigraph on n+n nodes
// as a union of k random perfect matchings (permutations).
func randomRegular(n, k int, rng *rand.Rand) *Bipartite {
	b := New(n, n)
	for j := 0; j < k; j++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			b.AddEdge(i, perm[i])
		}
	}
	return b
}

// eulerSplit Euler-partitions every edge of b on a fresh Splitter and
// returns the edge IDs of the two halves.
func eulerSplit(b *Bipartite) (a, bb []int, err error) {
	var s Splitter
	a = make([]int, b.NumEdges()/2)
	bb = make([]int, b.NumEdges()/2)
	nA, nB, err := s.Split(b.NLeft(), b.NRight(), b.EdgeList(), a, bb)
	return a[:nA], bb[:nB], err
}

func TestEulerSplitHalvesDegreesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, k int }{
		{1, 2}, {2, 2}, {3, 4}, {8, 6}, {16, 8}, {5, 2}, {32, 4},
	} {
		b := randomRegular(tc.n, tc.k, rng)
		a, bb, err := eulerSplit(b)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if len(a)+len(bb) != b.NumEdges() {
			t.Fatalf("n=%d k=%d: split covers %d+%d of %d edges", tc.n, tc.k, len(a), len(bb), b.NumEdges())
		}
		checkHalving(t, b, a, bb, tc.k)
	}
}

func checkHalving(t *testing.T, b *Bipartite, a, bb []int, k int) {
	t.Helper()
	degLA := make([]int, b.NLeft())
	degRA := make([]int, b.NRight())
	seen := make(map[int]bool)
	for _, id := range a {
		if seen[id] {
			t.Fatalf("edge %d appears twice in split", id)
		}
		seen[id] = true
		e := b.Edge(id)
		degLA[e.L]++
		degRA[e.R]++
	}
	for _, id := range bb {
		if seen[id] {
			t.Fatalf("edge %d appears in both halves", id)
		}
		seen[id] = true
	}
	for l, d := range degLA {
		if d != k/2 {
			t.Fatalf("left node %d has %d edges in half A, want %d", l, d, k/2)
		}
	}
	for r, d := range degRA {
		if d != k/2 {
			t.Fatalf("right node %d has %d edges in half A, want %d", r, d, k/2)
		}
	}
}

func TestEulerSplitNonRegularEvenDegrees(t *testing.T) {
	// Degrees need only be even, not uniform: two 4-degree and two 2-degree
	// nodes.
	b := New(2, 2)
	for i := 0; i < 2; i++ {
		b.AddEdge(0, 0)
		b.AddEdge(1, 1)
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 0)
	b.AddEdge(1, 1)
	// degrees: L0=4? L0: 2 +1 +1 = 4, L1: 4; R0: 2+1+1=4, R1: 4. All even.
	a, bb, err := eulerSplit(b)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if len(a) != 4 || len(bb) != 4 {
		t.Fatalf("split sizes %d/%d, want 4/4", len(a), len(bb))
	}
}

func TestEulerSplitOddDegreeRejected(t *testing.T) {
	b := New(1, 1)
	b.AddEdge(0, 0)
	if _, _, err := eulerSplit(b); err == nil {
		t.Fatal("odd-degree graph accepted")
	}
}

func TestEulerSplitDisconnected(t *testing.T) {
	// Two disjoint 2-regular components.
	b := New(4, 4)
	for i := 0; i < 2; i++ {
		b.AddEdge(0, 1)
		b.AddEdge(1, 0)
		b.AddEdge(2, 3)
		b.AddEdge(3, 2)
	}
	a, bb, err := eulerSplit(b)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	checkHalving(t, b, a, bb, 2)
}

func TestEulerSplitEmptyGraph(t *testing.T) {
	b := New(3, 3)
	a, bb, err := eulerSplit(b)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if len(a) != 0 || len(bb) != 0 {
		t.Fatalf("empty graph split sizes %d/%d", len(a), len(bb))
	}
}

// Property: for random even-regular multigraphs, the Euler split is an
// exact edge partition with exact degree halving.
func TestEulerSplitProperty(t *testing.T) {
	f := func(nSeed, kSeed uint8, seed int64) bool {
		n := int(nSeed)%20 + 1
		k := 2 * (int(kSeed)%6 + 1)
		rng := rand.New(rand.NewSource(seed))
		b := randomRegular(n, k, rng)
		a, bb, err := eulerSplit(b)
		if err != nil {
			return false
		}
		if len(a)+len(bb) != n*k {
			return false
		}
		degL := make([]int, n)
		for _, id := range a {
			degL[b.Edge(id).L]++
		}
		for _, d := range degL {
			if d != k/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	b := Circulant(3, 2)
	b.adjL[0][0] = 99 // dangling edge ID
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted dangling edge ID")
	}

	c := Circulant(3, 2)
	c.edges[c.adjL[0][0]].L = 1 // adjacency no longer mirrors edge list
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted mismatched endpoint")
	}
}

func TestStringSummary(t *testing.T) {
	b := Circulant(3, 2)
	if got, want := b.String(), "Bipartite(3+3 nodes, 6 edges)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// multiplicity counts the edges joining left node l and right node r: the
// l(s, s') quantity of the paper's list systems.
func multiplicity(b *Bipartite, l, r int) int {
	n := 0
	for _, id := range b.AdjL(l) {
		if b.Edge(id).R == r {
			n++
		}
	}
	return n
}
