package edgecolor

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pops/internal/graph"
)

// drainStream runs a stream to exhaustion, checking that every yielded
// factor is internally consistent with the colors it wrote and returning
// the per-factor order of emission.
func drainStream(t *testing.T, st *Stream, colors []int, wantFactors int) []int {
	t.Helper()
	for i := range colors {
		colors[i] = -1
	}
	var order []int
	seen := make(map[int]bool)
	for {
		fid, ok, err := st.Next(colors)
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if !ok {
			break
		}
		if seen[fid] {
			t.Fatalf("stream yielded factor %d twice", fid)
		}
		seen[fid] = true
		order = append(order, fid)
		for _, id := range st.Factor() {
			if colors[id] != fid {
				t.Fatalf("factor %d edge %d has color %d", fid, id, colors[id])
			}
		}
	}
	if len(order) != wantFactors {
		t.Fatalf("stream produced %d factors, want %d", len(order), wantFactors)
	}
	return order
}

// TestStreamMatchesFactorizeInto drives Start to exhaustion on every
// algorithm and random regular shape, and requires the accumulated colors to
// be identical to the batch FactorizeInto output on a fresh arena.
func TestStreamMatchesFactorizeInto(t *testing.T) {
	for _, algo := range allAlgorithms {
		streamArena := NewFactorizer() // reused across cases: stream state must reset cleanly
		for _, tc := range factorizerCases() {
			b := randomRegular(tc.n, tc.k, rand.New(rand.NewSource(int64(tc.seed))))
			want := make([]int, b.NumEdges())
			if err := NewFactorizer().FactorizeInto(want, b, algo); err != nil {
				t.Fatalf("%v n=%d k=%d: batch: %v", algo, tc.n, tc.k, err)
			}
			got := make([]int, b.NumEdges())
			st := streamArena.StartCtx(context.Background(), b, algo)
			drainStream(t, st, got, tc.k)
			for id := range got {
				if got[id] != want[id] {
					t.Fatalf("%v n=%d k=%d: stream diverges at edge %d: %d vs %d",
						algo, tc.n, tc.k, id, got[id], want[id])
				}
			}
		}
	}
}

// TestStreamBalancedMatchesBalancedInto is the balanced (Theorem 1)
// analogue: per-class emission must reproduce the batch balanced coloring,
// including on shapes where the balancing tables grow, shrink, and repeat
// and on class sizes that do not divide n.
func TestStreamBalancedMatchesBalancedInto(t *testing.T) {
	cases := []struct{ n, k, colors, seed int }{
		{4, 2, 4, 61}, {6, 3, 6, 62}, {8, 8, 8, 63}, {6, 2, 3, 64},
		{4, 3, 12, 65}, {12, 4, 16, 66}, {8, 3, 8, 67}, {7, 5, 7, 68},
		{4, 2, 4, 61},
	}
	for _, algo := range allAlgorithms {
		f := NewFactorizer()
		for _, tc := range cases {
			b := randomRegular(tc.n, tc.k, rand.New(rand.NewSource(int64(tc.seed))))
			want := make([]int, b.NumEdges())
			if err := NewFactorizer().BalancedInto(want, b, tc.colors, algo); err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: batch: %v", algo, tc.n, tc.k, tc.colors, err)
			}
			got := make([]int, b.NumEdges())
			st := f.StartBalancedCtx(context.Background(), b, tc.colors, algo)
			drainStream(t, st, got, tc.colors)
			for id := range got {
				if got[id] != want[id] {
					t.Fatalf("%v n=%d k=%d C=%d: stream diverges at edge %d: %d vs %d",
						algo, tc.n, tc.k, tc.colors, id, got[id], want[id])
				}
			}
			// Every class of a balanced stream must carry exactly
			// n·k/C edges; re-check the final coloring end to end.
			if err := Verify(b, got, tc.colors, tc.n*tc.k/tc.colors); err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: %v", algo, tc.n, tc.k, tc.colors, err)
			}
		}
	}
}

// TestStreamFactorOrderRepeatedMatching pins the emission order of the
// materialized streams: the repeated-matching backend yields factors in
// ascending class order.
func TestStreamFactorOrderRepeatedMatching(t *testing.T) {
	b := randomRegular(9, 7, rand.New(rand.NewSource(53)))
	colors := make([]int, b.NumEdges())
	st := NewFactorizer().StartCtx(context.Background(), b, RepeatedMatching)
	order := drainStream(t, st, colors, 7)
	if !sort.IntsAreSorted(order) {
		t.Fatalf("repeated-matching emission order %v is not ascending", order)
	}
}

// TestStreamProperty mirrors TestFactorizerProperty for the streaming path:
// random regular multigraphs, one reused arena per algorithm, colors always
// a valid 1-factorization equal to the batch output.
func TestStreamProperty(t *testing.T) {
	arenas := map[Algorithm]*Factorizer{}
	for _, algo := range allAlgorithms {
		arenas[algo] = NewFactorizer()
	}
	f := func(nSeed, kSeed uint8, seed int64) bool {
		n := int(nSeed)%14 + 1
		k := int(kSeed)%9 + 1
		b := randomRegular(n, k, rand.New(rand.NewSource(seed)))
		for _, algo := range allAlgorithms {
			want := make([]int, b.NumEdges())
			if err := NewFactorizer().FactorizeInto(want, b, algo); err != nil {
				return false
			}
			got := make([]int, b.NumEdges())
			st := arenas[algo].StartCtx(context.Background(), b, algo)
			for {
				_, ok, err := st.Next(got)
				if err != nil {
					return false
				}
				if !ok {
					break
				}
			}
			for id := range got {
				if got[id] != want[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSuperseded pins the arena-ownership contract: any other
// factorization on the stream's arena invalidates the stream, and the error
// is sticky.
func TestStreamSuperseded(t *testing.T) {
	f := NewFactorizer()
	b := randomRegular(6, 4, rand.New(rand.NewSource(54)))
	colors := make([]int, b.NumEdges())
	st := f.StartCtx(context.Background(), b, EulerSplitDC)
	if _, ok, err := st.Next(colors); err != nil || !ok {
		t.Fatalf("first factor: ok=%v err=%v", ok, err)
	}
	if err := f.FactorizeInto(colors, b, EulerSplitDC); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Next(colors); !errors.Is(err, ErrStreamSuperseded) {
		t.Fatalf("superseded stream returned %v, want ErrStreamSuperseded", err)
	}
	if _, _, err := st.Next(colors); !errors.Is(err, ErrStreamSuperseded) {
		t.Fatalf("superseded error is not sticky: %v", err)
	}
}

// TestStreamValidationErrors covers the sticky validation failures.
func TestStreamValidationErrors(t *testing.T) {
	f := NewFactorizer()
	uneven := graph.New(2, 3)
	if _, _, err := f.StartCtx(context.Background(), uneven, EulerSplitDC).Next(nil); err == nil {
		t.Fatal("unequal sides accepted")
	}
	irregular := graph.New(2, 2)
	irregular.AddEdge(0, 0)
	if _, _, err := f.StartCtx(context.Background(), irregular, EulerSplitDC).Next([]int{0}); !errors.Is(err, graph.ErrNotBipartiteRegular) {
		t.Fatalf("irregular graph: %v", err)
	}
	b := randomRegular(4, 2, rand.New(rand.NewSource(55)))
	if _, _, err := f.StartCtx(context.Background(), b, Algorithm(99)).Next(make([]int, b.NumEdges())); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	st := f.StartCtx(context.Background(), b, EulerSplitDC)
	if _, _, err := st.Next(make([]int, 1)); err == nil {
		t.Fatal("short color buffer accepted")
	}
	// Balanced validation: 3 colors do not divide the 8 edges of a
	// 2-regular graph on 4+4 nodes evenly.
	if _, _, err := f.StartBalancedCtx(context.Background(), b, 3, EulerSplitDC).Next(make([]int, b.NumEdges())); err == nil {
		t.Fatal("uneven color count accepted by StartBalanced")
	}
}

// TestStreamEmptyGraph: a 0-regular instance streams zero factors, and a
// balanced stream over it yields its C classes empty.
func TestStreamEmptyGraph(t *testing.T) {
	b := graph.New(3, 3)
	st := NewFactorizer().StartCtx(context.Background(), b, EulerSplitDC)
	if fid, ok, err := st.Next([]int{}); ok || err != nil {
		t.Fatalf("empty graph yielded factor %d (ok=%v err=%v)", fid, ok, err)
	}
	for _, algo := range allAlgorithms {
		drainStream(t, NewFactorizer().StartBalancedCtx(context.Background(), b, 2, algo), []int{}, 2)
	}
}

// TestStreamAllocBudget extends the steady-state allocation guard to the
// streaming path: after one warm-up stream per shape, a full Start +
// drain-to-exhaustion cycle allocates nothing beyond the stream handle
// itself (Next is allocation-free), for both the plain and the balanced
// modes. CI runs this with make alloc-guard.
func TestStreamAllocBudget(t *testing.T) {
	const budget = 1 // the *Stream handle; every Next is allocation-free
	for _, algo := range []Algorithm{RepeatedMatching, EulerSplitDC, Insertion} {
		b := randomRegular(32, 16, rand.New(rand.NewSource(71)))
		f := NewFactorizer()
		colors := make([]int, b.NumEdges())
		drain := func() {
			st := f.StartCtx(context.Background(), b, algo)
			for {
				_, ok, err := st.Next(colors)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return
				}
			}
		}
		drain() // warm up
		if allocs := testing.AllocsPerRun(10, drain); allocs > budget {
			t.Errorf("%v: streaming drain allocates %.1f/op on a warmed arena, budget %d", algo, allocs, budget)
		}
	}
	// Balanced with C = n > k (the d < g planner path), once with a class
	// size dividing n and once without, where the swaps run.
	for _, tc := range []struct{ n, k, seed int }{{24, 6, 72}, {64, 12, 73}} {
		b := randomRegular(tc.n, tc.k, rand.New(rand.NewSource(int64(tc.seed))))
		f := NewFactorizer()
		colors := make([]int, b.NumEdges())
		drain := func() {
			st := f.StartBalancedCtx(context.Background(), b, tc.n, EulerSplitDC)
			for {
				_, ok, err := st.Next(colors)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return
				}
			}
		}
		drain() // warm up
		if allocs := testing.AllocsPerRun(10, drain); allocs > budget {
			t.Errorf("n=%d k=%d: StartBalanced: streaming drain allocates %.1f/op on a warmed arena, budget %d",
				tc.n, tc.k, allocs, budget)
		}
	}
}
