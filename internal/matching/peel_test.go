package matching

import (
	"math/rand"
	"testing"

	"pops/internal/graph"
)

// refHopcroftKarp is a textbook Hopcroft–Karp over a view, kept as the test
// reference for the arena matcher: every phase, the first included, starts
// with a BFS from the free left nodes, and the DFS visits left nodes in
// order and each one's edges in view order. It returns the matched view
// indices in left-node order.
func refHopcroftKarp(nL, nR int, view []graph.Edge) []int {
	adj := make([][]int, nL)
	for i, e := range view {
		adj[e.L] = append(adj[e.L], i)
	}
	matchL := make([]int, nL) // left node -> view index of its edge
	matchR := make([]int, nR)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	dist := make([]int, nL)
	bfs := func() bool {
		var queue []int
		for l := range matchL {
			dist[l] = infDist
			if matchL[l] == -1 {
				dist[l] = 0
				queue = append(queue, l)
			}
		}
		found := false
		for len(queue) > 0 {
			l := queue[0]
			queue = queue[1:]
			for _, id := range adj[l] {
				mm := matchR[view[id].R]
				if mm == -1 {
					found = true
				} else if nl := view[mm].L; dist[nl] == infDist {
					dist[nl] = dist[l] + 1
					queue = append(queue, nl)
				}
			}
		}
		return found
	}
	var dfs func(l int) bool
	dfs = func(l int) bool {
		for _, id := range adj[l] {
			r := view[id].R
			mm := matchR[r]
			if mm == -1 || (dist[view[mm].L] == dist[l]+1 && dfs(view[mm].L)) {
				matchL[l], matchR[r] = id, id
				return true
			}
		}
		dist[l] = infDist
		return false
	}
	for bfs() {
		for l := range matchL {
			if matchL[l] == -1 {
				dfs(l)
			}
		}
	}
	var out []int
	for _, id := range matchL {
		if id != -1 {
			out = append(out, id)
		}
	}
	return out
}

// refPeel is the repeated-matching scheme Peel replaces: every round it
// compacts the surviving edges into a fresh view, in their original order,
// runs Hopcroft–Karp on it from scratch and drops the matched edges. It
// returns the edge indices each round matched, until no edge is left.
func refPeel(nL, nR int, edges []graph.Edge) [][]int {
	alive := make([]int, len(edges))
	for i := range alive {
		alive[i] = i
	}
	var rounds [][]int
	for len(alive) > 0 {
		view := make([]graph.Edge, len(alive))
		for i, id := range alive {
			view[i] = edges[id]
		}
		matched := make([]bool, len(alive))
		var round []int
		for _, j := range refHopcroftKarp(nL, nR, view) {
			round = append(round, alive[j])
			matched[j] = true
		}
		rounds = append(rounds, round)
		rest := alive[:0]
		for j, id := range alive {
			if !matched[j] {
				rest = append(rest, id)
			}
		}
		alive = rest
	}
	return rounds
}

// randomMultigraph returns m random edges on nL+nR nodes. Endpoints are
// drawn from a few nodes per side and a share of the edges repeat an
// earlier one, so parallel edges are common; the list is shuffled.
func randomMultigraph(nL, nR, m int, rng *rand.Rand) []graph.Edge {
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		if len(edges) > 0 && rng.Intn(4) == 0 {
			edges = append(edges, edges[rng.Intn(len(edges))])
			continue
		}
		edges = append(edges, graph.Edge{L: rng.Intn(nL), R: rng.Intn(nR)})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// shuffledRegularM returns the edges of k random perfect matchings on n+n
// nodes, shuffled: a k-regular multigraph whose left lists are not stacked
// matchings, so first-fit rarely finds a perfect matching.
func shuffledRegularM(n, k int, rng *rand.Rand) []graph.Edge {
	var edges []graph.Edge
	for j := 0; j < k; j++ {
		for l, r := range rng.Perm(n) {
			edges = append(edges, graph.Edge{L: l, R: r})
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// checkPeel peels edges to exhaustion on m and compares every round with
// refPeel.
func checkPeel(t *testing.T, m *Matcher, nL, nR int, edges []graph.Edge) {
	t.Helper()
	want := refPeel(nL, nR, edges)
	out := make([]int, min(nL, nR))
	m.StartPeel(nL, nR, edges)
	for i, w := range want {
		n := m.Peel(out)
		if n != len(w) {
			t.Fatalf("nL=%d nR=%d m=%d round %d: size %d, reference %d", nL, nR, len(edges), i, n, len(w))
		}
		for j := range w {
			if out[j] != w[j] {
				t.Fatalf("nL=%d nR=%d m=%d round %d: out[%d] = %d, reference %d\nedges %v",
					nL, nR, len(edges), i, j, out[j], w[j], edges)
			}
		}
	}
	if n := m.Peel(out); n != 0 {
		t.Fatalf("nL=%d nR=%d m=%d: %d edges matched after every edge was peeled", nL, nR, len(edges), n)
	}
}

// TestPeelMatchesReference is the differential pin of the peeling matcher:
// on random multigraphs with parallel edges and shuffled edge order, and on
// shuffled regular ones, every round must match exactly the edges the
// rebuild-per-round reference matches, in the same order. One arena serves
// every instance, so stale state between StartPeel calls shows too.
func TestPeelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var m Matcher
	for trial := 0; trial < 300; trial++ {
		nL, nR := rng.Intn(12)+1, rng.Intn(12)+1
		checkPeel(t, &m, nL, nR, randomMultigraph(nL, nR, rng.Intn(60), rng))
	}
	for trial := 0; trial < 100; trial++ {
		n, k := rng.Intn(40)+1, rng.Intn(9)+1
		checkPeel(t, &m, n, n, shuffledRegularM(n, k, rng))
	}
}

// FuzzPeelMatchesReference drives the differential of
// TestPeelMatchesReference with fuzzer-chosen shapes: a random multigraph
// when regular is even, a shuffled k-regular one otherwise.
func FuzzPeelMatchesReference(f *testing.F) {
	f.Add(uint8(5), uint8(7), uint8(30), uint8(0), int64(1))
	f.Add(uint8(16), uint8(16), uint8(4), uint8(1), int64(2))
	f.Add(uint8(1), uint8(1), uint8(9), uint8(0), int64(3))
	f.Add(uint8(9), uint8(3), uint8(0), uint8(0), int64(4))
	f.Add(uint8(33), uint8(33), uint8(7), uint8(1), int64(5))
	var m Matcher
	f.Fuzz(func(t *testing.T, lSeed, rSeed, mSeed, regular uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		if regular%2 == 1 {
			n, k := int(lSeed)%48+1, int(mSeed)%10+1
			checkPeel(t, &m, n, n, shuffledRegularM(n, k, rng))
			return
		}
		nL, nR := int(lSeed)%24+1, int(rSeed)%24+1
		checkPeel(t, &m, nL, nR, randomMultigraph(nL, nR, int(mSeed)%96, rng))
	})
}
