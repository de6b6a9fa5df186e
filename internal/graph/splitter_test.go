package graph

import (
	"math/rand"
	"testing"
)

// TestSplitterViewMatchesSubgraph pins the view contract the edge-coloring
// engine relies on: splitting a gathered edge view on an arena reused across
// trials must equal a fresh arena's split of the materialized subgraph,
// index for index.
func TestSplitterViewMatchesSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s Splitter // one arena across all trials
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(8) + 2
		k := (rng.Intn(4) + 1) * 2 // even-regular
		b := New(n, n)
		for j := 0; j < k; j++ {
			perm := rng.Perm(n)
			for i := 0; i < n; i++ {
				b.AddEdge(i, perm[i])
			}
		}
		// A random even-degree view: take whole permutation rounds.
		rounds := (rng.Intn(k/2) + 1) * 2
		ids := make([]int, 0, rounds*n)
		for j := 0; j < rounds; j++ {
			for i := 0; i < n; i++ {
				ids = append(ids, j*n+i)
			}
		}
		sub, orig := b.SubgraphByEdges(ids)
		wantA, wantB, err := eulerSplit(sub)
		if err != nil {
			t.Fatalf("trial %d: fresh split: %v", trial, err)
		}

		edges := make([]Edge, len(ids))
		for i, id := range ids {
			edges[i] = b.Edge(id)
		}
		outA := make([]int, len(ids)/2)
		outB := make([]int, len(ids)/2)
		nA, nB, err := s.Split(n, n, edges, outA, outB)
		if err != nil {
			t.Fatalf("trial %d: Split: %v", trial, err)
		}
		if nA != len(wantA) || nB != len(wantB) {
			t.Fatalf("trial %d: half sizes (%d,%d), want (%d,%d)", trial, nA, nB, len(wantA), len(wantB))
		}
		for i := range wantA {
			if orig[outA[i]] != orig[wantA[i]] {
				t.Fatalf("trial %d: A[%d] = edge %d, want %d", trial, i, outA[i], wantA[i])
			}
		}
		for i := range wantB {
			if orig[outB[i]] != orig[wantB[i]] {
				t.Fatalf("trial %d: B[%d] = edge %d, want %d", trial, i, outB[i], wantB[i])
			}
		}
	}
}

// TestSplitterOddDegreeError checks the splitter rejects odd-degree views.
func TestSplitterOddDegreeError(t *testing.T) {
	var s Splitter
	edges := []Edge{{L: 0, R: 0}}
	if _, _, err := s.Split(1, 1, edges, []int{0}, []int{0}); err == nil {
		t.Fatal("odd-degree view accepted")
	}
}

// TestSplitterSteadyStateAllocFree guards the arena contract: a warmed
// splitter performs no allocations.
func TestSplitterSteadyStateAllocFree(t *testing.T) {
	b := Circulant(64, 8)
	edges := b.EdgeList()
	outA := make([]int, b.NumEdges()/2)
	outB := make([]int, b.NumEdges()/2)
	var s Splitter
	if _, _, err := s.Split(64, 64, edges, outA, outB); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := s.Split(64, 64, edges, outA, outB); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warmed Splitter allocates %.1f/op, want 0", allocs)
	}
}
