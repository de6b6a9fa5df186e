package edgecolor

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pops/internal/graph"
)

// factorizerCases spans the shapes the engine must handle: k odd and even,
// parallel-edge bundles, single nodes, and k == n.
func factorizerCases() []struct{ n, k, seed int } {
	return []struct{ n, k, seed int }{
		{1, 1, 41}, {2, 2, 42}, {3, 2, 43}, {4, 4, 44}, {5, 3, 45},
		{8, 8, 46}, {16, 5, 47}, {9, 7, 48}, {12, 1, 49}, {7, 6, 50},
	}
}

// TestFactorizerAllCombinations checks that every algorithm × arena-reuse
// combination produces k disjoint perfect matchings, and that a reused
// arena is colorwise identical to a fresh one.
func TestFactorizerAllCombinations(t *testing.T) {
	for _, algo := range allAlgorithms {
		reused := NewFactorizer() // one arena across every case of this algorithm
		for _, tc := range factorizerCases() {
			b := randomRegular(tc.n, tc.k, rand.New(rand.NewSource(int64(tc.seed))))
			want, err := factorize(b, algo) // fresh arena per call
			if err != nil {
				t.Fatalf("%v n=%d k=%d: fresh arena: %v", algo, tc.n, tc.k, err)
			}
			checkFactorization(t, b, want, tc.k)

			colors := make([]int, b.NumEdges())
			if err := reused.FactorizeInto(colors, b, algo); err != nil {
				t.Fatalf("%v n=%d k=%d: reused arena: %v", algo, tc.n, tc.k, err)
			}
			for id := range colors {
				if colors[id] != want[id] {
					t.Fatalf("%v n=%d k=%d: reused arena diverges at edge %d: %d vs %d",
						algo, tc.n, tc.k, id, colors[id], want[id])
				}
			}
		}
	}
}

// TestFactorizerParallelBundles exercises the d parallel copies of a cyclic
// permutation — the adversarial "whole group to next group" demand graph —
// on a single reused arena across both odd and even multiplicities.
func TestFactorizerParallelBundles(t *testing.T) {
	for _, algo := range allAlgorithms {
		f := NewFactorizer()
		for _, d := range []int{1, 2, 3, 5, 8} {
			g := 6
			b := graph.New(g, g)
			for c := 0; c < d; c++ {
				for h := 0; h < g; h++ {
					b.AddEdge(h, (h+1)%g)
				}
			}
			colors := make([]int, b.NumEdges())
			if err := f.FactorizeInto(colors, b, algo); err != nil {
				t.Fatalf("%v d=%d: %v", algo, d, err)
			}
			if err := Verify(b, colors, d, g); err != nil {
				t.Fatalf("%v d=%d: %v", algo, d, err)
			}
		}
	}
}

// TestFactorizerReuseDeterministic pins that a warmed arena reproduces its
// own output exactly: scratch reuse must not leak state between calls.
func TestFactorizerReuseDeterministic(t *testing.T) {
	b := randomRegular(12, 7, rand.New(rand.NewSource(51)))
	for _, algo := range allAlgorithms {
		f := NewFactorizer()
		first := make([]int, b.NumEdges())
		if err := f.FactorizeInto(first, b, algo); err != nil {
			t.Fatal(err)
		}
		// Perturb the arena with a different instance in between.
		other := randomRegular(9, 4, rand.New(rand.NewSource(52)))
		otherColors := make([]int, other.NumEdges())
		if err := f.FactorizeInto(otherColors, other, algo); err != nil {
			t.Fatal(err)
		}
		again := make([]int, b.NumEdges())
		if err := f.FactorizeInto(again, b, algo); err != nil {
			t.Fatal(err)
		}
		for id := range first {
			if first[id] != again[id] {
				t.Fatalf("%v: arena reuse changed edge %d: %d vs %d", algo, id, first[id], again[id])
			}
		}
	}
}

// TestBalancedIntoMatchesWrapperAcrossShapes runs one arena through a
// shape-changing stream of Balanced instances (the balancing tables grow,
// shrink and repeat) and compares against the fresh-arena wrapper.
func TestBalancedIntoMatchesWrapperAcrossShapes(t *testing.T) {
	cases := []struct{ n, k, colors, seed int }{
		{4, 2, 4, 61}, {6, 3, 6, 62}, {8, 8, 8, 63}, {6, 2, 3, 64},
		{4, 3, 12, 65}, {12, 4, 16, 66}, {8, 3, 8, 67}, {7, 5, 7, 68},
		{4, 2, 4, 61}, // repeat of the first shape
	}
	for _, algo := range allAlgorithms {
		f := NewFactorizer()
		for _, tc := range cases {
			b := randomRegular(tc.n, tc.k, rand.New(rand.NewSource(int64(tc.seed))))
			want, err := Balanced(b, tc.colors, algo)
			if err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: wrapper: %v", algo, tc.n, tc.k, tc.colors, err)
			}
			got := make([]int, b.NumEdges())
			if err := f.BalancedInto(got, b, tc.colors, algo); err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: arena: %v", algo, tc.n, tc.k, tc.colors, err)
			}
			for id := range got {
				if got[id] != want[id] {
					t.Fatalf("%v n=%d k=%d C=%d: edge %d: %d vs %d",
						algo, tc.n, tc.k, tc.colors, id, got[id], want[id])
				}
			}
		}
	}
}

// TestFactorizerProperty is the randomized property check of the issue: for
// random k-regular bipartite multigraphs (parallel edges arise naturally
// from overlapping permutation rounds), every algorithm on a reused arena
// yields k disjoint perfect matchings.
func TestFactorizerProperty(t *testing.T) {
	arenas := map[Algorithm]*Factorizer{}
	for _, algo := range allAlgorithms {
		arenas[algo] = NewFactorizer()
	}
	f := func(nSeed, kSeed uint8, seed int64) bool {
		n := int(nSeed)%14 + 1
		k := int(kSeed)%9 + 1
		b := randomRegular(n, k, rand.New(rand.NewSource(seed)))
		for _, algo := range allAlgorithms {
			colors := make([]int, b.NumEdges())
			if err := arenas[algo].FactorizeInto(colors, b, algo); err != nil {
				return false
			}
			if err := Verify(b, colors, k, n); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// FuzzFactorizeInto drives the arena engine with fuzzer-chosen shapes and
// seeds; the corpus covers odd/even degrees and parallel-bundle graphs.
func FuzzFactorizeInto(f *testing.F) {
	f.Add(uint8(4), uint8(3), int64(1))
	f.Add(uint8(8), uint8(8), int64(2))
	f.Add(uint8(5), uint8(2), int64(3))
	f.Add(uint8(1), uint8(1), int64(4))
	f.Add(uint8(13), uint8(6), int64(5))
	fact := NewFactorizer()
	f.Fuzz(func(t *testing.T, nSeed, kSeed uint8, seed int64) {
		n := int(nSeed)%16 + 1
		k := int(kSeed)%10 + 1
		b := randomRegular(n, k, rand.New(rand.NewSource(seed)))
		for _, algo := range allAlgorithms {
			colors := make([]int, b.NumEdges())
			if err := fact.FactorizeInto(colors, b, algo); err != nil {
				t.Fatalf("%v n=%d k=%d: %v", algo, n, k, err)
			}
			if err := Verify(b, colors, k, n); err != nil {
				t.Fatalf("%v n=%d k=%d: %v", algo, n, k, err)
			}
		}
	})
}

// FuzzBalancedInto drives the chunk-and-balance construction with
// fuzzer-chosen k-regular shapes and admissible color counts (C ≥ k,
// C | n·k): on every backend the coloring must be proper with classes of
// exactly n·k/C edges, and the drained StartBalanced stream must equal the
// batch BalancedInto.
func FuzzBalancedInto(f *testing.F) {
	f.Add(uint8(8), uint8(3), uint8(0), int64(1))  // (3,8): class size 3 ∤ 8
	f.Add(uint8(7), uint8(5), uint8(0), int64(2))  // (5,7): class size 5 > 7/2
	f.Add(uint8(9), uint8(6), uint8(0), int64(3))  // (6,9)
	f.Add(uint8(16), uint8(4), uint8(0), int64(4)) // class size divides n: no swaps
	f.Add(uint8(6), uint8(2), uint8(1), int64(5))  // C < n
	f.Add(uint8(4), uint8(3), uint8(5), int64(6))  // C > n
	// Odd degrees below the top of the Euler-split recursion: 12 → 6 → 3,
	// 10 → 5, and 7 → 6 → 3 after an odd top.
	f.Add(uint8(11), uint8(11), uint8(0), int64(7)) // n=12, k=12
	f.Add(uint8(15), uint8(9), uint8(3), int64(8))  // n=16, k=10
	f.Add(uint8(20), uint8(6), uint8(0), int64(9))  // n=21, k=7
	batch, stream := NewFactorizer(), NewFactorizer()
	f.Fuzz(func(t *testing.T, nSeed, kSeed, cSeed uint8, seed int64) {
		n := int(nSeed)%24 + 1
		k := int(kSeed)%12 + 1
		colorCount := balancedColorCount(n, k, int(cSeed))
		b := randomRegular(n, k, rand.New(rand.NewSource(seed)))
		for _, algo := range allAlgorithms {
			want := make([]int, b.NumEdges())
			if err := batch.BalancedInto(want, b, colorCount, algo); err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: %v", algo, n, k, colorCount, err)
			}
			if err := Verify(b, want, colorCount, n*k/colorCount); err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: %v", algo, n, k, colorCount, err)
			}
			got := make([]int, b.NumEdges())
			st := stream.StartBalancedCtx(context.Background(), b, colorCount, algo)
			for {
				_, ok, err := st.Next(got)
				if err != nil {
					t.Fatalf("%v n=%d k=%d C=%d: stream: %v", algo, n, k, colorCount, err)
				}
				if !ok {
					break
				}
			}
			for id := range got {
				if got[id] != want[id] {
					t.Fatalf("%v n=%d k=%d C=%d: stream diverges at edge %d: %d vs %d",
						algo, n, k, colorCount, id, got[id], want[id])
				}
			}
		}
	})
}

// TestFactorizerAllocBudget is the steady-state allocation guard: after one
// warm-up call, FactorizeInto and BalancedInto on a reused arena must stay
// within a fixed allocation budget (the engine itself is allocation-free;
// the budget of 0 is the contract the planner's hot path relies on). CI
// runs this test as its perf-regression smoke.
func TestFactorizerAllocBudget(t *testing.T) {
	const budget = 0
	for _, algo := range allAlgorithms {
		b := randomRegular(32, 16, rand.New(rand.NewSource(71)))
		f := NewFactorizer()
		colors := make([]int, b.NumEdges())
		if err := f.FactorizeInto(colors, b, algo); err != nil { // warm up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := f.FactorizeInto(colors, b, algo); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%v: FactorizeInto allocates %.1f/op on a warmed arena, budget %d", algo, allocs, budget)
		}
	}
	// Balanced with C = n > k (the d < g planner path), once with a class
	// size dividing n and once without,
	// where the swaps run.
	for _, algo := range allAlgorithms {
		for _, tc := range []struct{ n, k, seed int }{{24, 6, 72}, {64, 12, 73}} {
			b := randomRegular(tc.n, tc.k, rand.New(rand.NewSource(int64(tc.seed))))
			f := NewFactorizer()
			colors := make([]int, b.NumEdges())
			if err := f.BalancedInto(colors, b, tc.n, algo); err != nil { // warm up
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := f.BalancedInto(colors, b, tc.n, algo); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > budget {
				t.Errorf("%v n=%d k=%d: BalancedInto allocates %.1f/op on a warmed arena, budget %d",
					algo, tc.n, tc.k, allocs, budget)
			}
		}
	}
}

// BenchmarkFactorizerReuse contrasts a fresh arena per call with a reused
// arena on the planner-shaped workload.
func BenchmarkFactorizerReuse(b *testing.B) {
	for _, g := range []int{32, 128} {
		bb := randomRegular(g, g/2, rand.New(rand.NewSource(81)))
		b.Run(fmt.Sprintf("fresh/g=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := factorize(bb, EulerSplitDC); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("arena/g=%d", g), func(b *testing.B) {
			f := NewFactorizer()
			colors := make([]int, bb.NumEdges())
			if err := f.FactorizeInto(colors, bb, EulerSplitDC); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.FactorizeInto(colors, bb, EulerSplitDC); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
