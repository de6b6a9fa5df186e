package edgecolor

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pops/internal/graph"
	"pops/internal/perms"
)

// demandGraph is the group demand graph of permutation pi on POPS(d, g):
// one edge from the source group to the destination group of every packet,
// g nodes a side, d-regular.
func demandGraph(d, g int, pi []int) *graph.Bipartite {
	b := graph.New(g, g)
	for p, q := range pi {
		b.AddEdge(p/d, q/d)
	}
	return b
}

// splitCase is one instance of the split property tests.
type splitCase struct {
	name string
	b    *graph.Bipartite
}

// splitCases covers the inputs the Euler split must halve exactly:
// parallel-edge multigraphs (the identity demand, doubled edges, whole
// groups sent to one group), structured demand (transpose, bit reversal,
// shifts) and random permutations, at degrees 3, 5, 12, 15 and 24 on
// d < g, d = g and d > g shapes.
func splitCases() []splitCase {
	var cases []splitCase
	add := func(name string, d, g int, pi []int) {
		cases = append(cases, splitCase{fmt.Sprintf("%s/d=%d/g=%d", name, d, g), demandGraph(d, g, pi)})
	}
	rng := rand.New(rand.NewSource(91))
	for _, d := range []int{3, 5, 12, 15, 24} {
		for _, g := range []int{d + d/2 + 1, d, max(1, d/3)} {
			n := d * g
			add("random", d, g, perms.Random(n, rng))
			add("identity", d, g, perms.Identity(n))
			add("transpose", d, g, perms.Transpose(g, d))
			add("shift", d, g, perms.CyclicShift(n, d+1))
			add("reversal", d, g, perms.VectorReversal(n))
			rot, err := perms.GroupRotation(d, g, 1)
			if err != nil {
				panic(err)
			}
			add("group-rotation", d, g, rot)
		}
	}
	for _, s := range []struct{ d, g int }{{8, 32}, {16, 16}, {32, 8}, {16, 64}} {
		bits := 0
		for 1<<bits < s.d*s.g {
			bits++
		}
		for _, bpc := range []struct {
			name string
			make func(int) (*perms.BPC, error)
		}{{"bit-reversal", perms.BitReversal}, {"perfect-shuffle", perms.PerfectShuffle}} {
			p, err := bpc.make(bits)
			if err != nil {
				panic(err)
			}
			add(bpc.name, s.d, s.g, p.Permutation())
		}
	}
	// Doubled edges: a perfect matching with every edge twice, k = 2.
	doubled := graph.New(7, 7)
	for l, r := range rng.Perm(7) {
		doubled.AddEdge(l, r)
		doubled.AddEdge(l, r)
	}
	return append(cases, splitCase{"doubled-matching/k=2", doubled})
}

// checkHalves verifies the class numbering of the divide and conquer on a
// k-regular coloring: the classes [base, base+k) of every subproblem form a
// k-regular subgraph — an even subproblem's two halves [base, base+k/2) and
// [base+k/2, base+k) are each (k/2)-regular, and an odd one's rest
// [base, base+k−1) is (k−1)-regular once its matching, class base+k−1, is
// peeled.
func checkHalves(t *testing.T, name string, b *graph.Bipartite, colors []int, k, base int) {
	t.Helper()
	if k <= 1 {
		return
	}
	if k%2 == 1 {
		checkRegular(t, name, b, colors, base, k-1)
		checkHalves(t, name, b, colors, k-1, base)
		return
	}
	checkRegular(t, name, b, colors, base, k/2)
	checkRegular(t, name, b, colors, base+k/2, k/2)
	checkHalves(t, name, b, colors, k/2, base)
	checkHalves(t, name, b, colors, k/2, base+k/2)
}

// checkRegular fails unless the edges colored [lo, lo+k) give every node of
// b degree k.
func checkRegular(t *testing.T, name string, b *graph.Bipartite, colors []int, lo, k int) {
	t.Helper()
	degL, degR := make([]int, b.NLeft()), make([]int, b.NRight())
	for id, c := range colors {
		if c >= lo && c < lo+k {
			e := b.Edge(id)
			degL[e.L]++
			degR[e.R]++
		}
	}
	for v := range degL {
		if degL[v] != k || degR[v] != k {
			t.Fatalf("%s: classes [%d,%d) give left node %d degree %d and right node %d degree %d, want %d",
				name, lo, lo+k, v, degL[v], v, degR[v], k)
		}
	}
}

// drainInto runs st to exhaustion into a fresh color slice.
func drainInto(t *testing.T, name string, st *Stream, m int) []int {
	t.Helper()
	colors := make([]int, m)
	for {
		_, ok, err := st.Next(colors)
		if err != nil {
			t.Fatalf("%s: stream: %v", name, err)
		}
		if !ok {
			return colors
		}
	}
}

// TestEulerSplitProperties drives EulerSplitDC through FactorizeInto,
// StartCtx, BalancedInto and StartBalancedCtx on every split case: each
// class is a perfect matching, each half of each split is regular of half
// the degree, the drained streams equal the batch calls, and the balanced
// coloring with C = max(d, g) classes has classes of exactly n·k/C edges.
// One arena serves every case, as in a planner worker.
func TestEulerSplitProperties(t *testing.T) {
	f := NewFactorizer()
	for _, tc := range splitCases() {
		b := tc.b
		n, m := b.NLeft(), b.NumEdges()
		k, ok := b.RegularDegree()
		if !ok {
			t.Fatalf("%s: demand graph not regular", tc.name)
		}
		colors := make([]int, m)
		if err := f.FactorizeInto(colors, b, EulerSplitDC); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := Verify(b, colors, k, n); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkHalves(t, tc.name, b, colors, k, 0)
		if got := drainInto(t, tc.name, f.StartCtx(context.Background(), b, EulerSplitDC), m); !slices.Equal(got, colors) {
			t.Fatalf("%s: drained stream differs from FactorizeInto", tc.name)
		}

		colorCount := max(k, n) // the planner's max(d, g)
		balanced := make([]int, m)
		if err := f.BalancedInto(balanced, b, colorCount, EulerSplitDC); err != nil {
			t.Fatalf("%s: balanced: %v", tc.name, err)
		}
		if err := Verify(b, balanced, colorCount, m/colorCount); err != nil {
			t.Fatalf("%s: balanced C=%d: %v", tc.name, colorCount, err)
		}
		st := f.StartBalancedCtx(context.Background(), b, colorCount, EulerSplitDC)
		if got := drainInto(t, tc.name, st, m); !slices.Equal(got, balanced) {
			t.Fatalf("%s: drained balanced stream differs from BalancedInto", tc.name)
		}
	}
}

// checkPairStructure fails unless segment [lo,hi) of f is in pair
// structure for degree k on n-node sides: ids sorted by left node in blocks
// of k, ro a permutation of the segment's positions sorted by right node in
// blocks of k.
func checkPairStructure(t *testing.T, name string, f *Factorizer, all []graph.Edge, n, lo, hi, k int) {
	t.Helper()
	if hi-lo != n*k {
		t.Fatalf("%s: segment [%d,%d) holds %d edges, want %d·%d", name, lo, hi, hi-lo, n, k)
	}
	seen := make([]bool, hi-lo)
	for p, id := range f.ids[lo:hi] {
		if l := all[id].L; l != p/k {
			t.Fatalf("%s: degree %d: position %d holds an edge of left node %d", name, k, p, l)
		}
	}
	for j, p := range f.ro[lo:hi] {
		if p < 0 || p >= hi-lo || seen[p] {
			t.Fatalf("%s: degree %d: right order entry %d is %d, not a fresh position", name, k, j, p)
		}
		seen[p] = true
		if r := all[f.ids[lo+p]].R; r != j/k {
			t.Fatalf("%s: degree %d: right order entry %d holds an edge of right node %d", name, k, j, r)
		}
	}
}

// TestSplitKeepsPairStructure walks the divide and conquer by hand: every
// split must leave both halves in pair structure holding exactly the
// parent's edges, and every odd-degree peel must move a perfect matching to
// the segment's tail and leave the rest in pair structure for the degree
// below.
func TestSplitKeepsPairStructure(t *testing.T) {
	f := NewFactorizer()
	for _, tc := range splitCases() {
		b, all := tc.b, tc.b.EdgeList()
		n := b.NLeft()
		k, _ := b.RegularDegree()
		f.eulerStart(b, k)
		colors := make([]int, b.NumEdges())
		var walk func(lo, hi, k int)
		walk = func(lo, hi, k int) {
			checkPairStructure(t, tc.name, f, all, n, lo, hi, k)
			switch {
			case k == 1:
			case k%2 == 1:
				before := slices.Sorted(slices.Values(f.ids[lo:hi]))
				if err := f.peel(colors, all, n, lo, hi, k, 0); err != nil {
					t.Fatalf("%s: peel at degree %d: %v", tc.name, k, err)
				}
				if err := checkMatching(all, f.ids[hi-n:hi], n); err != nil {
					t.Fatalf("%s: peel at degree %d: %v", tc.name, k, err)
				}
				if after := slices.Sorted(slices.Values(f.ids[lo:hi])); !slices.Equal(before, after) {
					t.Fatalf("%s: peel at degree %d lost or duplicated edges", tc.name, k)
				}
				walk(lo, hi-n, k-1)
			default:
				before := slices.Sorted(slices.Values(f.ids[lo:hi]))
				f.split(lo, hi)
				if after := slices.Sorted(slices.Values(f.ids[lo:hi])); !slices.Equal(before, after) {
					t.Fatalf("%s: split at degree %d lost or duplicated edges", tc.name, k)
				}
				mid := lo + (hi-lo)/2
				walk(lo, mid, k/2)
				walk(mid, hi, k/2)
			}
		}
		walk(0, b.NumEdges(), k)
	}
}

// checkMatching reports whether ids (edge IDs of all) cover each of the n
// left and n right nodes exactly once.
func checkMatching(all []graph.Edge, ids []int, n int) error {
	if len(ids) != n {
		return fmt.Errorf("matching has %d edges, want %d", len(ids), n)
	}
	seenL, seenR := make([]bool, n), make([]bool, n)
	for _, id := range ids {
		e := all[id]
		if seenL[e.L] || seenR[e.R] {
			return fmt.Errorf("edge %d (%d,%d) meets a covered node", id, e.L, e.R)
		}
		seenL[e.L], seenR[e.R] = true, true
	}
	return nil
}
