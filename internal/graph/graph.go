// Package graph implements the bipartite multigraph substrate used by the
// fair-distribution machinery of Mei & Rizzi (Theorem 1).
//
// Graphs are bipartite with node classes L (left) and R (right). Parallel
// edges are first-class: every edge has a stable integer identifier, so
// higher layers (edge coloring, fair distributions) can attach meaning to an
// individual edge (e.g. "the packet originating at processor 7") even when
// several edges join the same node pair.
package graph

import (
	"errors"
	"fmt"
)

// Edge is a single (possibly parallel) edge of a bipartite multigraph.
// L is an index into the left node class, R into the right one.
type Edge struct {
	L, R int
}

// Bipartite is a bipartite multigraph with a fixed number of left and right
// nodes and an append-only edge list. Edge identifiers are dense: the i-th
// added edge has ID i.
//
// The zero value is an empty graph with no nodes; use New.
type Bipartite struct {
	nLeft, nRight int
	edges         []Edge
	adjL          [][]int // left node -> incident edge IDs
	adjR          [][]int // right node -> incident edge IDs
}

// New returns an empty bipartite multigraph with nLeft left nodes and nRight
// right nodes. It panics if either count is negative.
func New(nLeft, nRight int) *Bipartite {
	if nLeft < 0 || nRight < 0 {
		panic(fmt.Sprintf("graph: negative node count (%d, %d)", nLeft, nRight))
	}
	return &Bipartite{
		nLeft:  nLeft,
		nRight: nRight,
		adjL:   make([][]int, nLeft),
		adjR:   make([][]int, nRight),
	}
}

// NLeft returns the number of left nodes.
func (b *Bipartite) NLeft() int { return b.nLeft }

// NRight returns the number of right nodes.
func (b *Bipartite) NRight() int { return b.nRight }

// NumEdges returns the number of edges (counting multiplicities).
func (b *Bipartite) NumEdges() int { return len(b.edges) }

// AddEdge appends an edge between left node l and right node r and returns
// its ID. Parallel edges are permitted. It panics on out-of-range endpoints;
// endpoints come from internal construction code, not external input, so a
// violation is a programming error.
func (b *Bipartite) AddEdge(l, r int) int {
	if l < 0 || l >= b.nLeft || r < 0 || r >= b.nRight {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range (%d,%d)", l, r, b.nLeft, b.nRight))
	}
	id := len(b.edges)
	b.edges = append(b.edges, Edge{L: l, R: r})
	b.adjL[l] = append(b.adjL[l], id)
	b.adjR[r] = append(b.adjR[r], id)
	return id
}

// Edge returns the endpoints of edge id. It panics if id is out of range.
func (b *Bipartite) Edge(id int) Edge {
	return b.edges[id]
}

// EdgeList returns the internal edge list indexed by edge ID, without
// copying. The returned slice must not be modified and is invalidated by
// AddEdge/Reset; it exists so the allocation-free matching and coloring
// engines can scan edges without cloning CSR arrays per call.
func (b *Bipartite) EdgeList() []Edge { return b.edges }

// AdjL returns the IDs of edges incident with left node l. The returned
// slice must not be modified.
func (b *Bipartite) AdjL(l int) []int { return b.adjL[l] }

// MaxDegree returns the maximum degree over all nodes of both classes.
// The maximum degree of the empty graph is 0.
func (b *Bipartite) MaxDegree() int {
	max := 0
	for l := 0; l < b.nLeft; l++ {
		if d := len(b.adjL[l]); d > max {
			max = d
		}
	}
	for r := 0; r < b.nRight; r++ {
		if d := len(b.adjR[r]); d > max {
			max = d
		}
	}
	return max
}

// IsRegular reports whether every node of both classes has degree exactly k.
func (b *Bipartite) IsRegular(k int) bool {
	for l := 0; l < b.nLeft; l++ {
		if len(b.adjL[l]) != k {
			return false
		}
	}
	for r := 0; r < b.nRight; r++ {
		if len(b.adjR[r]) != k {
			return false
		}
	}
	return true
}

// RegularDegree returns (k, true) if the graph is k-regular on both sides,
// and (0, false) otherwise. The empty graph with nodes is 0-regular.
func (b *Bipartite) RegularDegree() (int, bool) {
	if b.nLeft == 0 && b.nRight == 0 {
		return 0, true
	}
	var k int
	switch {
	case b.nLeft > 0:
		k = len(b.adjL[0])
	default:
		k = len(b.adjR[0])
	}
	if b.IsRegular(k) {
		return k, true
	}
	return 0, false
}

// Reset removes every edge while keeping the node classes and the capacity
// of the internal adjacency lists, so a graph can be refilled without
// reallocating. Used by the planner's batch path to amortize allocations
// across permutations.
func (b *Bipartite) Reset() {
	b.edges = b.edges[:0]
	for l := range b.adjL {
		b.adjL[l] = b.adjL[l][:0]
	}
	for r := range b.adjR {
		b.adjR[r] = b.adjR[r][:0]
	}
}

// Clone returns a deep copy of the graph. Edge IDs are preserved.
func (b *Bipartite) Clone() *Bipartite {
	c := New(b.nLeft, b.nRight)
	c.edges = make([]Edge, len(b.edges))
	copy(c.edges, b.edges)
	for l := range b.adjL {
		c.adjL[l] = append([]int(nil), b.adjL[l]...)
	}
	for r := range b.adjR {
		c.adjR[r] = append([]int(nil), b.adjR[r]...)
	}
	return c
}

// ErrNotBipartiteRegular is returned by operations that require a k-regular
// bipartite multigraph when the input is not regular.
var ErrNotBipartiteRegular = errors.New("graph: multigraph is not regular")

// Validate performs internal consistency checks (adjacency mirrors the edge
// list, no dangling IDs). It returns an error describing the first violation
// found, or nil. It is used by tests and by failure-injection paths.
func (b *Bipartite) Validate() error {
	if len(b.adjL) != b.nLeft || len(b.adjR) != b.nRight {
		return fmt.Errorf("graph: adjacency size mismatch: %d/%d left, %d/%d right",
			len(b.adjL), b.nLeft, len(b.adjR), b.nRight)
	}
	seenL := 0
	for l, ids := range b.adjL {
		for _, id := range ids {
			if id < 0 || id >= len(b.edges) {
				return fmt.Errorf("graph: left node %d references edge %d out of range", l, id)
			}
			if b.edges[id].L != l {
				return fmt.Errorf("graph: edge %d listed at left node %d but has L=%d", id, l, b.edges[id].L)
			}
			seenL++
		}
	}
	if seenL != len(b.edges) {
		return fmt.Errorf("graph: left adjacency covers %d edge slots, want %d", seenL, len(b.edges))
	}
	seenR := 0
	for r, ids := range b.adjR {
		for _, id := range ids {
			if id < 0 || id >= len(b.edges) {
				return fmt.Errorf("graph: right node %d references edge %d out of range", r, id)
			}
			if b.edges[id].R != r {
				return fmt.Errorf("graph: edge %d listed at right node %d but has R=%d", id, r, b.edges[id].R)
			}
			seenR++
		}
	}
	if seenR != len(b.edges) {
		return fmt.Errorf("graph: right adjacency covers %d edge slots, want %d", seenR, len(b.edges))
	}
	return nil
}

// String implements fmt.Stringer with a compact structural summary.
func (b *Bipartite) String() string {
	return fmt.Sprintf("Bipartite(%d+%d nodes, %d edges)", b.nLeft, b.nRight, len(b.edges))
}

// Circulant returns the k-regular bipartite circulant on n+n nodes: left
// node i is joined to right nodes (i+j) mod n for j = 0..k-1. It panics if
// k > n or any argument is negative. Circulants are the standard source of
// structured regular test graphs.
func Circulant(n, k int) *Bipartite {
	if k > n {
		panic(fmt.Sprintf("graph: circulant degree %d exceeds side size %d", k, n))
	}
	b := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			b.AddEdge(i, (i+j)%n)
		}
	}
	return b
}

// SubgraphByEdges returns a new graph on the same node classes containing
// exactly the listed edges (by ID in the receiver), along with a mapping
// from new edge IDs to original IDs: orig[newID] = oldID.
func (b *Bipartite) SubgraphByEdges(ids []int) (*Bipartite, []int) {
	s := New(b.nLeft, b.nRight)
	orig := make([]int, 0, len(ids))
	for _, id := range ids {
		e := b.edges[id]
		s.AddEdge(e.L, e.R)
		orig = append(orig, id)
	}
	return s, orig
}
