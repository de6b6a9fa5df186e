package edgecolor

import (
	"fmt"

	"pops/internal/graph"
)

// Recolorer performs Kempe-chain (alternating-path) repairs on an
// edge-colored bipartite multigraph. It maintains, per color, the edge
// incident to each node — so properness (no two same-colored edges sharing a
// node) is enforced structurally: an edge can only move to a color that is
// free at both its endpoints, and flipping a full two-color component swaps
// the colors along a path or even cycle, which preserves properness by the
// classic Kempe argument.
//
// The fault-aware planner uses it to move demand edges off color classes
// whose relay coupler died: first by direct recoloring into classes with
// slack, then by component flips, finally by growing the color space
// (extra rounds) when no in-schedule repair exists.
type Recolorer struct {
	g      *graph.Bipartite
	colors []int // edge -> color; mutated in place (caller's slice)
	nL, nR int
	ncolor int   // colors currently tabled
	colL   []int // [c*nL + l] -> edge ID + 1 (0 = no edge of color c at l)
	colR   []int // [c*nR + r] -> edge ID + 1
	comp   []int // Component scratch, reused across calls
}

// NewRecolorer indexes an existing proper coloring of g: colors[e] is the
// color of edge e, every color in [0, ncolor). The colors slice is retained
// and mutated in place by Recolor/FlipComponent. It returns an error if the
// coloring is out of range or not proper.
func NewRecolorer(g *graph.Bipartite, colors []int, ncolor int) (*Recolorer, error) {
	if len(colors) != g.NumEdges() {
		return nil, fmt.Errorf("edgecolor: %d colors for %d edges", len(colors), g.NumEdges())
	}
	r := &Recolorer{
		g:      g,
		colors: colors,
		nL:     g.NLeft(),
		nR:     g.NRight(),
		ncolor: ncolor,
		colL:   make([]int, ncolor*g.NLeft()),
		colR:   make([]int, ncolor*g.NRight()),
	}
	for e, c := range colors {
		if c < 0 || c >= ncolor {
			return nil, fmt.Errorf("edgecolor: edge %d has color %d outside [0,%d)", e, c, ncolor)
		}
		ed := g.Edge(e)
		if prev := r.colL[c*r.nL+ed.L]; prev != 0 {
			return nil, fmt.Errorf("edgecolor: color %d repeated at left node %d (edges %d, %d)", c, ed.L, prev-1, e)
		}
		if prev := r.colR[c*r.nR+ed.R]; prev != 0 {
			return nil, fmt.Errorf("edgecolor: color %d repeated at right node %d (edges %d, %d)", c, ed.R, prev-1, e)
		}
		r.colL[c*r.nL+ed.L] = e + 1
		r.colR[c*r.nR+ed.R] = e + 1
	}
	return r, nil
}

// Color returns the current color of edge e.
func (r *Recolorer) Color(e int) int { return r.colors[e] }

// Grow extends the color space to ncolor colors, all initially empty. The
// table layout keys by [color*nodeCount + node], so growth is an append.
func (r *Recolorer) Grow(ncolor int) {
	if ncolor <= r.ncolor {
		return
	}
	r.colL = append(r.colL, make([]int, (ncolor-r.ncolor)*r.nL)...)
	r.colR = append(r.colR, make([]int, (ncolor-r.ncolor)*r.nR)...)
	r.ncolor = ncolor
}

// EdgeAtL returns the edge of color c incident to left node l, or -1.
func (r *Recolorer) EdgeAtL(l, c int) int { return r.colL[c*r.nL+l] - 1 }

// EdgeAtR returns the edge of color c incident to right node rn, or -1.
func (r *Recolorer) EdgeAtR(rn, c int) int { return r.colR[c*r.nR+rn] - 1 }

// Recolor moves edge e to color c directly. The move must keep the coloring
// proper: c must be free at both endpoints of e.
func (r *Recolorer) Recolor(e, c int) error {
	if c < 0 || c >= r.ncolor {
		return fmt.Errorf("edgecolor: color %d outside [0,%d)", c, r.ncolor)
	}
	ed := r.g.Edge(e)
	if c == r.colors[e] {
		return nil
	}
	if other := r.EdgeAtL(ed.L, c); other >= 0 {
		return fmt.Errorf("edgecolor: color %d already at left node %d (edge %d)", c, ed.L, other)
	}
	if other := r.EdgeAtR(ed.R, c); other >= 0 {
		return fmt.Errorf("edgecolor: color %d already at right node %d (edge %d)", c, ed.R, other)
	}
	old := r.colors[e]
	r.colL[old*r.nL+ed.L] = 0
	r.colR[old*r.nR+ed.R] = 0
	r.colL[c*r.nL+ed.L] = e + 1
	r.colR[c*r.nR+ed.R] = e + 1
	r.colors[e] = c
	return nil
}

// Component returns the edges of the two-color alternating component through
// e in colors {Color(e), other} — a path or an even cycle, since each node
// touches at most one edge of each color. The result includes e and is valid
// until the next Component call. Passing other == Color(e) returns just e.
func (r *Recolorer) Component(e, other int) []int {
	a := r.colors[e]
	comp := append(r.comp[:0], e)
	if other == a {
		r.comp = comp
		return comp
	}
	closed := false
	// Walk away from e's left endpoint, then — unless the walk closed a
	// cycle back at e — away from its right endpoint.
	for dir := 0; dir < 2 && !closed; dir++ {
		onLeft := dir == 0
		var node int
		if onLeft {
			node = r.g.Edge(e).L
		} else {
			node = r.g.Edge(e).R
		}
		want := other
		for {
			var nxt int
			if onLeft {
				nxt = r.EdgeAtL(node, want)
			} else {
				nxt = r.EdgeAtR(node, want)
			}
			if nxt < 0 {
				break
			}
			if nxt == e {
				closed = true // even cycle: both walks would retrace it
				break
			}
			comp = append(comp, nxt)
			if onLeft {
				node = r.g.Edge(nxt).R
			} else {
				node = r.g.Edge(nxt).L
			}
			onLeft = !onLeft
			if r.colors[nxt] == a {
				want = other
			} else {
				want = a
			}
		}
	}
	r.comp = comp
	return comp
}

// FlipComponent swaps colors a and b along comp, which must be a complete
// two-color component as returned by Component(e, b) with Color(e) == a (or
// the symmetric call). Completeness is what makes the flip proper; flipping
// a partial chain would corrupt the tables, so violations panic.
func (r *Recolorer) FlipComponent(comp []int, a, b int) {
	for _, e := range comp {
		c := r.colors[e]
		ed := r.g.Edge(e)
		r.colL[c*r.nL+ed.L] = 0
		r.colR[c*r.nR+ed.R] = 0
	}
	for _, e := range comp {
		var c int
		switch r.colors[e] {
		case a:
			c = b
		case b:
			c = a
		default:
			panic(fmt.Sprintf("edgecolor: FlipComponent(%d,%d) over edge %d colored %d", a, b, e, r.colors[e]))
		}
		ed := r.g.Edge(e)
		if r.colL[c*r.nL+ed.L] != 0 || r.colR[c*r.nR+ed.R] != 0 {
			panic(fmt.Sprintf("edgecolor: FlipComponent over a partial component: edge %d collides at color %d", e, c))
		}
		r.colL[c*r.nL+ed.L] = e + 1
		r.colR[c*r.nR+ed.R] = e + 1
		r.colors[e] = c
	}
}
