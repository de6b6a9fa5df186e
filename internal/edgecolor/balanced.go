package edgecolor

import (
	"fmt"

	"pops/internal/graph"
)

// Balanced computes the coloring at the heart of Theorem 1 of Mei & Rizzi:
// given a k-regular bipartite multigraph b with n nodes per side and a color
// count C with k ≤ C and C | n·k, it returns a proper edge coloring with C
// colors in which every color class has size exactly Δ2 = n·k/C.
//
// The paper proves the theorem by padding b to a C-regular graph on
// (2n − Δ2)-node sides and 1-factorizing that. The code builds the same
// coloring on b itself, after de Werra's equitable edge-coloring theorem for
// bipartite multigraphs (D. de Werra, 1971): chunk and balance. The k
// perfect matchings of b are peeled one at a time and cut into classes of
// Δ2 edges — any subset of a matching is a matching, so each full chunk is
// final. At most one open class (fewer than Δ2 edges) carries from one
// matching to the next; it is topped up from the next matching A by
// swapping A-heavy alternating paths of A ∪ open, which exist while A is
// the larger of the two. A class is emitted only when full and never
// touched again. When Δ2 divides n no swap ever runs. For C == k the
// coloring is the plain 1-factorization of FactorizeInto.
//
// The returned slice maps edge ID of b to its color in [0, C). It is the
// convenience form of Factorizer.BalancedInto with a throwaway arena;
// repeated callers (the Theorem 2 planner) hold a Factorizer and reuse its
// scratch across calls.
func Balanced(b *graph.Bipartite, colorCount int, algo Algorithm) ([]int, error) {
	var f Factorizer
	colors := make([]int, b.NumEdges())
	if err := f.BalancedInto(colors, b, colorCount, algo); err != nil {
		return nil, err
	}
	return colors, nil
}

// BalancedInto is the arena form of Balanced: it writes the color of every
// edge of b into colors (indexed by edge ID, len(colors) == b.NumEdges()).
// It is the StartBalancedCtx stream drained, so the two cannot diverge; the
// stream lives on the stack and steady-state calls do not allocate.
func (f *Factorizer) BalancedInto(colors []int, b *graph.Bipartite, colorCount int, algo Algorithm) error {
	var st Stream
	f.begin(&st, nil, b, colorCount, algo)
	for {
		_, ok, err := st.Next(colors)
		if err != nil || !ok {
			return err
		}
	}
}

// balancedCheck validates a Balanced instance and returns the regular
// degree k of b and the class size n·k/C.
func balancedCheck(b *graph.Bipartite, colorCount int) (k, classSize int, err error) {
	n := b.NLeft()
	if n != b.NRight() {
		return 0, 0, fmt.Errorf("edgecolor: Balanced needs equal sides, got %d and %d", n, b.NRight())
	}
	k, ok := b.RegularDegree()
	if !ok {
		return 0, 0, graph.ErrNotBipartiteRegular
	}
	if colorCount < k {
		return 0, 0, fmt.Errorf("edgecolor: %d colors cannot properly color a %d-regular graph", colorCount, k)
	}
	if colorCount == 0 {
		return 0, 0, nil
	}
	if (n*k)%colorCount != 0 {
		return 0, 0, fmt.Errorf("edgecolor: %d colors do not divide %d edges evenly", colorCount, n*k)
	}
	return k, n * k / colorCount, nil
}

// resetOpen sizes the balancing tables for n-node sides and empties the
// open class.
func (f *Factorizer) resetOpen(n, classSize int) {
	f.aL = graph.ResizeInts(f.aL, n)
	f.oL = graph.ResizeInts(f.oL, n)
	f.oR = graph.ResizeInts(f.oR, n)
	for i := range f.oL {
		f.oL[i], f.oR[i] = -1, -1
	}
	if cap(f.open) < classSize {
		f.open = make([]int, 0, classSize)
	}
	if cap(f.balA) < n {
		f.balA = make([]int, 0, n)
	}
	if cap(f.swap) < 2*classSize {
		f.swap = make([]int, 0, 2*classSize)
	}
	f.open = f.open[:0]
}

// openAdd puts edge id into the open class; its endpoints must be free
// there.
func (f *Factorizer) openAdd(all []graph.Edge, id int) {
	e := all[id]
	f.oL[e.L], f.oR[e.R] = id, id
	f.open = append(f.open, id)
}

// clearOpen empties the open class after it was emitted.
func (f *Factorizer) clearOpen(all []graph.Edge) {
	for _, id := range f.open {
		e := all[id]
		f.oL[e.L], f.oR[e.R] = -1, -1
	}
	f.open = f.open[:0]
}

// balance tops up the non-empty open class O (fewer than s edges) from a, a
// fresh perfect matching on n-node sides, until one of the two holds
// exactly s edges. Each step swaps an a-heavy alternating path of a ∪ O,
// moving one edge net from a into O; both stay matchings. If n + |O| ≥ 2s,
// O fills to s and a keeps the rest; otherwise a shrinks to s and O keeps
// n + |O| − s < s edges. Either way a stays larger than O before every
// step, so the path the step needs exists (de Werra's counting argument).
//
// The rebuilt a is left in f.balA and O in f.open, each in left-node order.
// full reports which one holds the s-edge class: true for O.
func (f *Factorizer) balance(all []graph.Edge, a []int, s int) (full bool, err error) {
	n, o := len(a), len(f.open)
	need := n - s // shrink a to s
	if n+o >= 2*s {
		need = s - o // fill O to s
	}
	for _, id := range a {
		f.aL[all[id].L] = id
	}
	// Every O-free left node starts an a-heavy path: a covered every node
	// when it arrived, so a walk a, O, a, … from such a node only stops at a
	// right node that O leaves free. A swap turns its path O-heavy and
	// leaves every other component as it was, so one pass over the left
	// nodes finds all the paths the fill needs: there are n − |O| ≥ need.
	for l := 0; need > 0; l++ {
		if l == n {
			return false, fmt.Errorf("edgecolor: internal error: %d swaps short balancing a class of %d", need, s)
		}
		if f.oL[l] >= 0 {
			continue
		}
		f.swap = f.swap[:0]
		at := l
		for {
			ea := f.aL[at]
			if ea < 0 {
				return false, fmt.Errorf("edgecolor: internal error: left node %d has no matching edge", at)
			}
			f.swap = append(f.swap, ea)
			eo := f.oR[all[ea].R]
			if eo < 0 {
				break
			}
			f.swap = append(f.swap, eo)
			at = all[eo].L
		}
		// Swap the path: its a-edges join O and its O-edges join a. Every
		// table entry along it is rewritten but a's at l, which is cleared.
		for i, id := range f.swap {
			e := all[id]
			if i%2 == 0 {
				f.oL[e.L], f.oR[e.R] = id, id
			} else {
				f.aL[e.L] = id
			}
		}
		f.aL[l] = -1
		need--
	}
	f.open, f.balA = f.open[:0], f.balA[:0]
	for l := 0; l < n; l++ {
		if id := f.oL[l]; id >= 0 {
			f.open = append(f.open, id)
		}
		if id := f.aL[l]; id >= 0 {
			f.balA = append(f.balA, id)
		}
	}
	if len(f.open) != s && len(f.balA) != s {
		return false, fmt.Errorf("edgecolor: internal error: balancing left %d and %d edges, want a class of %d",
			len(f.open), len(f.balA), s)
	}
	return len(f.open) == s, nil
}
