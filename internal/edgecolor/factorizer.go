package edgecolor

import (
	"fmt"

	"pops/internal/graph"
	"pops/internal/matching"
)

// Factorizer is a reusable arena for bipartite edge coloring — the
// allocation-free engine behind FactorizeInto and Balanced. One Factorizer
// amortizes every piece of scratch the factorization algorithms need across
// calls:
//
//   - the Euler-split divide and conquer runs as an iterative work stack
//     over index-range views of a single edge-ID array, instead of
//     materializing a subgraph per recursion level. Each segment is kept in
//     pair structure (see split), so an Euler partition is a walk over
//     alternating cycles with no adjacency to build;
//   - the matching routines (Hopcroft–Karp, the Alon Euler-halving perfect
//     matcher) write into caller-provided buffers owned by the arena
//     (matching.Matcher);
//   - repeated matching builds the matcher's left adjacency once per
//     factorization and peels every perfect matching from it: each round's
//     matched edges are deleted from their lists in place, order kept, so
//     no round gathers, compacts or re-indexes the surviving edges;
//   - the Balanced chunk-and-balance construction keeps its open class and
//     its node-indexed matching tables in arena slices sized once per shape.
//
// After a warm-up call per shape, FactorizeInto and BalancedInto perform no
// heap allocations. The zero value is ready to use. A Factorizer is not
// safe for concurrent use; hold one per worker (core.Planner does).
//
// The engine is deterministic: the same graph and backend always yield the
// same colors (pinned by the package golden test).
type Factorizer struct {
	matcher matching.Matcher

	// Euler-split segments. A segment [lo,hi) of degree k on n-node sides
	// lists its edge IDs in ids[lo:hi] sorted by left node, so left node l
	// owns segment positions [l·k, (l+1)·k); ro[lo:hi] lists those
	// positions sorted by right node, so right node r owns ro entries
	// [r·k, (r+1)·k). RepeatedMatching and Insertion leave their classes in
	// ids instead, class c at ids[c·n:(c+1)·n] (see factorize).
	ids, ro  []int
	pos, tmp []int        // scratch: counting-sort cursors, partners, new positions; reorders
	side     []uint8      // split and peel marks per segment position
	edges    []graph.Edge // endpoints of a segment, gathered for the odd-degree peel
	match    []int        // matching output: segment positions
	stack    []segTask

	// streamGen invalidates the in-flight Stream (see StartCtx) whenever
	// another arena entry point reuses the factorization scratch.
	streamGen uint64

	// Insertion coloring scratch: flat color tables and the alternating
	// path, see colorInsertionInto.
	colL, colR []int
	path       []int

	// Balanced scratch (see balance): the open class, the factor it is
	// balanced against, the alternating path being swapped, and per-node
	// tables — left node -> edge of that factor, left/right node -> edge of
	// the open class (-1 for none).
	open, balA, swap []int
	aL, oL, oR       []int
}

// segTask is one pending subproblem of the Euler-split divide and conquer:
// the k-regular sub-multigraph holding the edges ids[lo:hi], whose color
// classes are base..base+k-1. Bases are precomputed on the way down, so
// tasks can run in any order and still reproduce the recursion's class
// numbering (A-half classes, then B-half classes; peeled matching last).
type segTask struct {
	lo, hi, k, base int
}

// NewFactorizer returns an empty arena. The zero value works too; New is
// for callers that want to share one behind a pointer.
func NewFactorizer() *Factorizer { return &Factorizer{} }

// FactorizeInto decomposes a k-regular bipartite multigraph with equal
// sides into k perfect matchings, writing the class index of every edge
// into colors (indexed by edge ID, len(colors) == b.NumEdges()). It returns
// an error if the graph is not regular or the sides differ. Steady-state
// calls on a warmed arena do not allocate.
func (f *Factorizer) FactorizeInto(colors []int, b *graph.Bipartite, algo Algorithm) error {
	if b.NLeft() != b.NRight() {
		return fmt.Errorf("edgecolor: sides differ (%d vs %d)", b.NLeft(), b.NRight())
	}
	k, ok := b.RegularDegree()
	if !ok {
		return graph.ErrNotBipartiteRegular
	}
	if len(colors) != b.NumEdges() {
		return fmt.Errorf("edgecolor: %d color slots for %d edges", len(colors), b.NumEdges())
	}
	f.streamGen++ // supersede any in-flight Stream; the arena is reused now
	return f.factorize(colors, b, k, algo)
}

// factorize runs backend algo on the validated k-regular b. EulerSplitDC
// drains the stepper Stream.Next resumes, so the batch and streamed
// colorings cannot diverge. RepeatedMatching and Insertion leave their
// classes in f.ids, class c at ids[c·n:(c+1)·n]: that is what a stream over
// them emits.
func (f *Factorizer) factorize(colors []int, b *graph.Bipartite, k int, algo Algorithm) error {
	n := b.NLeft()
	switch algo {
	case EulerSplitDC:
		f.eulerStart(b, k)
		for {
			_, _, ok, err := f.eulerNext(colors, b.EdgeList(), n)
			if err != nil || !ok {
				return err
			}
		}
	case RepeatedMatching:
		// Each Peel deletes its matching from the matcher's adjacency, so
		// round c peels the c-th perfect matching, in left-node order.
		f.ids = graph.ResizeInts(f.ids, b.NumEdges())
		f.matcher.StartPeel(n, n, b.EdgeList())
		for round := 0; round < k; round++ {
			match := f.ids[round*n : (round+1)*n]
			if nMatch := f.matcher.Peel(match); nMatch != n {
				return fmt.Errorf("edgecolor: round %d: matching size %d of %d (graph not regular?)",
					round, nMatch, n)
			}
			for _, id := range match {
				colors[id] = round
			}
		}
		return nil
	case Insertion:
		c, err := f.colorInsertionInto(colors, b)
		if err != nil {
			return err
		}
		if c > k {
			return fmt.Errorf("edgecolor: insertion used %d colors on %d-regular graph", c, k)
		}
		// Bucket the edges by color, IDs ascending within a class.
		f.ids = graph.ResizeInts(f.ids, len(colors))
		f.pos = graph.ResizeInts(f.pos, k)
		next := f.pos
		for c := range next {
			next[c] = c * n
		}
		for id, c := range colors {
			f.ids[next[c]] = id
			next[c]++
		}
		return nil
	default:
		return fmt.Errorf("edgecolor: unknown algorithm %v", algo)
	}
}

// eulerStart seeds the Euler-split work stack for a fresh factorization of
// the k-regular b: one segment holding every edge, in pair structure. The
// k == 0 (empty) instance leaves the stack empty, so the first eulerNext
// reports exhaustion.
func (f *Factorizer) eulerStart(b *graph.Bipartite, k int) {
	m, n := b.NumEdges(), b.NLeft()
	f.ids = graph.ResizeInts(f.ids, m)
	f.ro = graph.ResizeInts(f.ro, m)
	f.pos = graph.ResizeInts(f.pos, max(m, n))
	f.tmp = graph.ResizeInts(f.tmp, m)
	f.edges = graph.ResizeEdges(f.edges, m)
	f.match = graph.ResizeInts(f.match, n)
	if cap(f.side) < m {
		f.side = make([]uint8, m)
	}
	f.stack = f.stack[:0]
	if k == 0 {
		return
	}
	// Every node has degree k, so both orders are counting sorts into
	// blocks of k; each is stable, listing a node's edges in ID order.
	all, next := b.EdgeList(), f.pos[:n]
	for l := range next {
		next[l] = l * k
	}
	for id, e := range all {
		f.ids[next[e.L]] = id
		next[e.L]++
	}
	for r := range next {
		next[r] = r * k
	}
	for p, id := range f.ids {
		r := all[id].R
		f.ro[next[r]] = p
		next[r]++
	}
	f.stack = append(f.stack, segTask{lo: 0, hi: m, k: k, base: 0})
}

// split Euler-partitions the even-degree segment [lo,hi) into two halves of
// half its degree, each kept in pair structure: the A half in
// [lo, lo+(hi-lo)/2), the B half after it.
//
// In pair structure the partition needs no Euler tour. Segment positions
// 2i and 2i+1 hold edges of one left node, and ro entries 2j and 2j+1 edges
// of one right node; pairing them links every edge to one left partner and
// one right partner, so the links form disjoint alternating cycles of even
// length. Coloring each cycle A, B, A, … gives every pair one A edge and
// one B edge, which halves every degree exactly. A stable partition of both
// orders by half then leaves each half sorted by left and by right node,
// blocks of k/2 apiece: in pair structure again. The split is O(hi−lo).
func (f *Factorizer) split(lo, hi int) {
	ids, ro := f.ids[lo:hi], f.ro[lo:hi]
	m := len(ids)
	h := m / 2
	mate, side := f.pos[:m], f.side[:m]
	for j := 0; j < m; j += 2 {
		a, b := ro[j], ro[j+1]
		mate[a], mate[b] = b, a
	}
	clear(side)
	for s := 0; s < m; s += 2 {
		if side[s] != 0 {
			continue
		}
		for x := s; ; {
			side[x], side[x^1] = 1, 2 // A, and its left partner B
			if x = mate[x^1]; x == s {
				break
			}
		}
	}
	// Partition. Every left pair holds one edge of each half, so the A
	// half's i-th position is pair i's A edge and the B half's is its B
	// edge; a position p therefore renumbers to p/2 in its half, and every
	// right pair splits the same way. The selects are branch-free: which
	// member of a pair is A is a coin flip the predictor cannot learn.
	tmp := f.tmp[:m]
	for i := 0; i < h; i++ {
		t := int(side[2*i]) - 1 // 1 when the A edge is the odd member
		tmp[i], tmp[h+i] = ids[2*i+t], ids[2*i+1-t]
	}
	copy(ids, tmp)
	for j := 0; j < h; j++ {
		p, q := ro[2*j], ro[2*j+1]
		d := (p ^ q) & -(int(side[p]) - 1) // swap when p is the B edge
		tmp[j], tmp[h+j] = (p^d)>>1, (q^d)>>1
	}
	copy(ro, tmp)
}

// peel extracts one perfect matching (Alon's Euler-halving matcher) from the
// odd-degree-k segment [lo,hi), colors it class, and moves its edge IDs to
// ids[hi−n:hi] in left-node order. The rest [lo, hi−n) stays in pair
// structure for degree k−1: every node loses exactly one edge, so dropping
// the matched positions from both orders keeps their blocks aligned.
func (f *Factorizer) peel(colors []int, all []graph.Edge, n, lo, hi, k, class int) error {
	ids, ro := f.ids[lo:hi], f.ro[lo:hi]
	view := f.edges[:len(ids)]
	for p, id := range ids {
		view[p] = all[id]
	}
	nMatch, err := f.matcher.PerfectMatchingRegularInto(n, k, view, f.match)
	if err != nil {
		return fmt.Errorf("edgecolor: peeling matching at degree %d: %w", k, err)
	}
	side := f.side[:len(ids)]
	clear(side)
	for _, p := range f.match[:nMatch] {
		side[p] = 1
	}
	newPos, tmp := f.pos, f.tmp[:len(ids)]
	w, x := 0, len(ids)-n
	for p, id := range ids {
		if side[p] == 0 {
			newPos[p], tmp[w] = w, id
			w++
		} else {
			colors[id], tmp[x] = class, id
			x++
		}
	}
	copy(ids, tmp)
	w = 0
	for _, p := range ro {
		if side[p] == 0 {
			ro[w] = newPos[p]
			w++
		}
	}
	return nil
}

// eulerNext resumes the Euler-split divide and conquer until exactly one
// more 1-factor is complete: it halves even-degree segments with split,
// peels one perfect matching at odd degrees, and colors whole segments at
// degree one. The completed factor's class index is written into colors
// for each of its edges, whose IDs are returned in factor (arena-owned,
// valid until the next arena call). ok is false once every factor has been
// produced.
func (f *Factorizer) eulerNext(colors []int, all []graph.Edge, n int) (factorID int, factor []int, ok bool, err error) {
	for len(f.stack) > 0 {
		t := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		switch {
		case t.k == 1:
			seg := f.ids[t.lo:t.hi]
			for _, id := range seg {
				colors[id] = t.base
			}
			// seg is never revisited: segments are disjoint and this one
			// leaves the stack for good, so it is safe to hand out.
			return t.base, seg, true, nil
		case t.k%2 == 1:
			class := t.base + t.k - 1
			if err := f.peel(colors, all, n, t.lo, t.hi, t.k, class); err != nil {
				return 0, nil, false, err
			}
			// Like a degree-one segment, the matching is never revisited.
			f.stack = append(f.stack, segTask{lo: t.lo, hi: t.hi - n, k: t.k - 1, base: t.base})
			return class, f.ids[t.hi-n : t.hi], true, nil
		default:
			f.split(t.lo, t.hi)
			mid := t.lo + (t.hi-t.lo)/2
			f.stack = append(f.stack,
				segTask{lo: mid, hi: t.hi, k: t.k / 2, base: t.base + t.k/2},
				segTask{lo: t.lo, hi: mid, k: t.k / 2, base: t.base})
		}
	}
	return 0, nil, false, nil
}
