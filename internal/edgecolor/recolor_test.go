package edgecolor

import (
	"sort"
	"testing"

	"pops/internal/graph"
)

// properColoring checks the recolorer's coloring against the graph directly.
func properColoring(t *testing.T, g *graph.Bipartite, r *Recolorer) {
	t.Helper()
	seenL := map[[2]int]int{}
	seenR := map[[2]int]int{}
	for e := 0; e < g.NumEdges(); e++ {
		c := r.Color(e)
		ed := g.Edge(e)
		if prev, ok := seenL[[2]int{c, ed.L}]; ok {
			t.Fatalf("color %d repeated at left %d (edges %d, %d)", c, ed.L, prev, e)
		}
		if prev, ok := seenR[[2]int{c, ed.R}]; ok {
			t.Fatalf("color %d repeated at right %d (edges %d, %d)", c, ed.R, prev, e)
		}
		seenL[[2]int{c, ed.L}] = e
		seenR[[2]int{c, ed.R}] = e
		// Tables agree with the coloring.
		if r.EdgeAtL(ed.L, c) != e || r.EdgeAtR(ed.R, c) != e {
			t.Fatalf("table mismatch for edge %d color %d", e, c)
		}
	}
}

func TestRecolorerRejectsImproper(t *testing.T) {
	g := graph.New(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	if _, err := NewRecolorer(g, []int{0, 0}, 1); err == nil {
		t.Fatal("improper coloring accepted (color repeated at left node)")
	}
	if _, err := NewRecolorer(g, []int{0}, 1); err == nil {
		t.Fatal("short color slice accepted")
	}
	if _, err := NewRecolorer(g, []int{0, 5}, 2); err == nil {
		t.Fatal("out-of-range color accepted")
	}
}

func TestRecolorerRecolorAndGrow(t *testing.T) {
	// K2,2: edges (0,0) (0,1) (1,0) (1,1), properly 2-colored.
	g := graph.New(2, 2)
	g.AddEdge(0, 0) // e0 color 0
	g.AddEdge(0, 1) // e1 color 1
	g.AddEdge(1, 0) // e2 color 1
	g.AddEdge(1, 1) // e3 color 0
	colors := []int{0, 1, 1, 0}
	r, err := NewRecolorer(g, colors, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Color 1 is occupied at both endpoints of e0 — direct move must fail.
	if err := r.Recolor(0, 1); err == nil {
		t.Fatal("Recolor into an occupied color succeeded")
	}
	// Grow and move e0 to a fresh color.
	r.Grow(3)
	if r.ncolor != 3 {
		t.Fatalf("%d colors tabled, want 3", r.ncolor)
	}
	if err := r.Recolor(0, 2); err != nil {
		t.Fatalf("Recolor into fresh color: %v", err)
	}
	if colors[0] != 2 {
		t.Fatalf("caller slice not updated: colors[0] = %d", colors[0])
	}
	if r.EdgeAtL(0, 0) != -1 || r.EdgeAtL(0, 2) != 0 {
		t.Fatal("tables not moved with the edge")
	}
	properColoring(t, g, r)
	// e3 = (1,1) can join color 2: both its endpoints are free there.
	if err := r.Recolor(3, 2); err != nil {
		t.Fatalf("Recolor e3 into grown color: %v", err)
	}
	// With e0 and e3 gone from color 0, both endpoints of e2 = (1,0) are
	// free there.
	if err := r.Recolor(2, 0); err != nil {
		t.Fatalf("Recolor e2 into vacated color: %v", err)
	}
	properColoring(t, g, r)
}

func TestRecolorerComponentCycle(t *testing.T) {
	// K2,2 with the 2-coloring forms one alternating 4-cycle in {0,1}.
	g := graph.New(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 1)
	r, err := NewRecolorer(g, []int{0, 1, 1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	comp := append([]int(nil), r.Component(0, 1)...)
	sort.Ints(comp)
	if len(comp) != 4 {
		t.Fatalf("component = %v, want all 4 edges", comp)
	}
	r.FlipComponent(comp, 0, 1)
	if r.Color(0) != 1 || r.Color(1) != 0 || r.Color(2) != 0 || r.Color(3) != 1 {
		t.Fatalf("flip produced colors %v", []int{r.Color(0), r.Color(1), r.Color(2), r.Color(3)})
	}
	properColoring(t, g, r)
}

func TestRecolorerComponentPath(t *testing.T) {
	// A 3-edge alternating path: (0,0)c0 — (1,0)c1 — (1,1)c0. Edge (2,2)c1 is
	// a separate component.
	g := graph.New(3, 3)
	g.AddEdge(0, 0) // e0 c0
	g.AddEdge(1, 0) // e1 c1
	g.AddEdge(1, 1) // e2 c0
	g.AddEdge(2, 2) // e3 c1
	r, err := NewRecolorer(g, []int{0, 1, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// From the middle edge, both directions are found.
	comp := append([]int(nil), r.Component(1, 0)...)
	sort.Ints(comp)
	if want := []int{0, 1, 2}; len(comp) != 3 || comp[0] != want[0] || comp[1] != want[1] || comp[2] != want[2] {
		t.Fatalf("component through e1 = %v, want %v", comp, want)
	}
	// From an end edge too.
	comp2 := append([]int(nil), r.Component(0, 1)...)
	sort.Ints(comp2)
	if len(comp2) != 3 {
		t.Fatalf("component through e0 = %v, want 3 edges", comp2)
	}
	// The isolated edge is its own component.
	if comp3 := r.Component(3, 0); len(comp3) != 1 || comp3[0] != 3 {
		t.Fatalf("component through e3 = %v, want [3]", comp3)
	}
	r.FlipComponent(comp, 0, 1)
	if r.Color(0) != 1 || r.Color(1) != 0 || r.Color(2) != 1 || r.Color(3) != 1 {
		t.Fatalf("flip produced colors %v", []int{r.Color(0), r.Color(1), r.Color(2), r.Color(3)})
	}
	properColoring(t, g, r)
}
