package matching

import (
	"math/rand"
	"testing"

	"pops/internal/graph"
)

func randomRegularM(n, k int, rng *rand.Rand) *graph.Bipartite {
	b := graph.New(n, n)
	for j := 0; j < k; j++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			b.AddEdge(i, perm[i])
		}
	}
	return b
}

// TestHopcroftKarpIntoViewMatchesSubgraph pins the view contract: one Peel
// on a gathered edge view, on an arena reused across trials, equals the
// reference Hopcroft–Karp on the materialized subgraph.
func TestHopcroftKarpIntoViewMatchesSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var m Matcher
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(10) + 1
		k := rng.Intn(5) + 1
		b := randomRegularM(n, k, rng)
		// Random subset view.
		var ids []int
		for id := 0; id < b.NumEdges(); id++ {
			if rng.Intn(3) > 0 {
				ids = append(ids, id)
			}
		}
		sub, _ := b.SubgraphByEdges(ids)
		want := refHopcroftKarp(n, n, sub.EdgeList())

		edges := make([]graph.Edge, len(ids))
		for i, id := range ids {
			edges[i] = b.Edge(id)
		}
		out := make([]int, n)
		m.StartPeel(n, n, edges)
		got := m.Peel(out)
		if got != len(want) {
			t.Fatalf("trial %d: size %d, want %d", trial, got, len(want))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("trial %d: out[%d] = %d, want %d", trial, i, out[i], want[i])
			}
		}
	}
}

// TestPerfectMatchingRegularIntoViewValid checks the arena matcher on views
// of regular graphs: the result must be a perfect matching, identical on an
// arena reused across trials to a fresh arena's.
func TestPerfectMatchingRegularIntoViewValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var m Matcher
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(10) + 1
		k := rng.Intn(6) + 1
		b := randomRegularM(n, k, rng)
		want, err := perfectMatchingRegular(b)
		if err != nil {
			t.Fatalf("trial %d: fresh arena: %v", trial, err)
		}
		out := make([]int, n)
		outN, err := m.PerfectMatchingRegularInto(n, k, b.EdgeList(), out)
		if err != nil {
			t.Fatalf("trial %d: arena: %v", trial, err)
		}
		if outN != n || len(want) != n {
			t.Fatalf("trial %d: sizes %d/%d, want %d", trial, outN, len(want), n)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("trial %d: out[%d] = %d, want %d", trial, i, out[i], want[i])
			}
		}
		if err := VerifyMatching(b, out[:outN], true); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestPerfectMatchingRegularIntoRejectsIrregularView checks degree
// validation on raw views.
func TestPerfectMatchingRegularIntoRejectsIrregularView(t *testing.T) {
	var m Matcher
	edges := []graph.Edge{{L: 0, R: 0}, {L: 0, R: 1}, {L: 1, R: 1}}
	out := make([]int, 2)
	if _, err := m.PerfectMatchingRegularInto(2, 2, edges, out); err == nil {
		t.Fatal("irregular view accepted")
	}
}

// TestMatcherSteadyStateAllocFree guards the arena contract for both
// matching engines: a warmed Matcher performs no allocations, whether it
// peels a whole 1-factorization or runs Alon's perfect matcher.
func TestMatcherSteadyStateAllocFree(t *testing.T) {
	b := graph.Circulant(48, 7)
	edges := b.EdgeList()
	out := make([]int, 48)
	var m Matcher
	peelAll := func() {
		m.StartPeel(48, 48, edges)
		for round := 0; round < 7; round++ {
			if n := m.Peel(out); n != 48 {
				t.Fatalf("peel round %d matched %d of 48", round, n)
			}
		}
	}
	peelAll() // warm up
	allocs := testing.AllocsPerRun(10, peelAll)
	if allocs > 0 {
		t.Errorf("warmed StartPeel and 7 Peel rounds allocate %.1f/op, want 0", allocs)
	}
	if _, err := m.PerfectMatchingRegularInto(48, 7, edges, out); err != nil { // warm up
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(10, func() {
		if _, err := m.PerfectMatchingRegularInto(48, 7, edges, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warmed PerfectMatchingRegularInto allocates %.1f/op, want 0", allocs)
	}
}
