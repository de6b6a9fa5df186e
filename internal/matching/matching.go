// Package matching implements bipartite matching algorithms on the
// multigraphs of package graph. Matchings are the computational bottleneck
// of the routing planner (Remark 1 of Mei & Rizzi): a 1-factorization of a
// regular bipartite multigraph is obtained by repeatedly extracting perfect
// matchings, or faster by Euler-split halving.
//
// The kernels live on the reusable Matcher arena:
//
//   - StartPeel/Peel: Hopcroft–Karp, O(E·√V) per maximum matching, peeling
//     the perfect matchings of a regular multigraph one by one from one
//     adjacency (the RepeatedMatching factorization backend).
//   - PerfectMatchingRegularInto: Alon-style Euler-halving perfect matching
//     in a k-regular bipartite multigraph, O(m·log(nk)) — the engine behind
//     the near-linear 1-factorizations of Kapoor–Rizzi and Rizzi cited by
//     the paper.
//
// Kuhn, the classic augmenting-path maximum matching in O(V·E), is the
// reference the tests hold them to, and VerifyMatching the checker.
package matching

import (
	"fmt"

	"pops/internal/graph"
)

// Kuhn computes a maximum matching using augmenting paths and returns the
// IDs of the matched edges. Parallel edges are handled (at most one copy of
// a parallel bundle can be matched).
func Kuhn(b *graph.Bipartite) []int {
	nL, nR := b.NLeft(), b.NRight()
	matchL := make([]int, nL) // left node -> matched edge ID, -1 if free
	matchR := make([]int, nR)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	visited := make([]int, nR) // epoch marks
	epoch := 0

	var try func(l int) bool
	try = func(l int) bool {
		for _, id := range b.AdjL(l) {
			r := b.Edge(id).R
			if visited[r] == epoch {
				continue
			}
			visited[r] = epoch
			if matchR[r] == -1 || try(b.Edge(matchR[r]).L) {
				matchL[l] = id
				matchR[r] = id
				return true
			}
		}
		return false
	}

	for l := 0; l < nL; l++ {
		epoch++
		try(l)
	}
	out := make([]int, 0, len(matchL))
	for _, id := range matchL {
		if id != -1 {
			out = append(out, id)
		}
	}
	return out
}

// VerifyMatching checks that ids is a matching of b (no two edges share an
// endpoint) and, if perfect is true, that it covers every node of both
// classes. It returns a descriptive error on the first violation.
func VerifyMatching(b *graph.Bipartite, ids []int, perfect bool) error {
	seenL := make(map[int]bool, len(ids))
	seenR := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= b.NumEdges() {
			return fmt.Errorf("matching: edge ID %d out of range", id)
		}
		e := b.Edge(id)
		if seenL[e.L] {
			return fmt.Errorf("matching: left node %d covered twice", e.L)
		}
		if seenR[e.R] {
			return fmt.Errorf("matching: right node %d covered twice", e.R)
		}
		seenL[e.L] = true
		seenR[e.R] = true
	}
	if perfect {
		if len(ids) != b.NLeft() || len(ids) != b.NRight() {
			return fmt.Errorf("matching: size %d is not perfect for %d+%d nodes",
				len(ids), b.NLeft(), b.NRight())
		}
	}
	return nil
}
