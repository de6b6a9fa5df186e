package core

import (
	"context"
	"fmt"

	"pops/internal/edgecolor"
	"pops/internal/graph"
	"pops/internal/obs"
	"pops/internal/popsnet"
)

// Planner computes Theorem 2 routings repeatedly on one POPS(d, g) network.
// The network shape is validated once, and the demand multigraph, the
// edge-coloring arena, the permutation-validation scratch, and the
// invariant-check tables are reused across calls, so planning a stream of
// permutations allocates only what the returned Plans retain (π and the
// colors). A Planner is not safe for concurrent use; the public layer keeps
// a free list of them and checks one out per plan or stream, so each worker
// owns one Factorizer arena.
type Planner struct {
	nw   popsnet.Network
	opts Options

	// Scratch reused across Plan calls: demand, fact and the invariant
	// scratch are nil for d = 1, where routing is direct and needs no
	// coloring. fact is the allocation-free edge-coloring engine — the
	// planner's dominant cost — whose arena (Euler-split work stack,
	// matching buffers, balanced-coloring tables) persists across calls.
	demand     *graph.Bipartite
	fact       *edgecolor.Factorizer
	seen       []bool // perms.ValidateInto scratch
	seenGroup  []bool // group -> seen within current color class (undo-reset)
	colorCount int    // max(d, g)

	// Streaming scratch (StartPlanCtx): per-slot outstanding-class counters,
	// the sorted-class buffer, and the two fragments the stream last wrote,
	// reused across streams.
	remaining []int
	classBuf  []int
	frag      [2]popsnet.Slot

	// H-relation scratch (PlanHRelation / StartHRelation), created lazily on
	// the first h-relation workload. hrelFact is a second coloring arena,
	// separate from fact: the request-graph factorization streams from it
	// while each peeled factor is routed as a permutation on fact, so the
	// two factorizations never supersede each other.
	hrelDemand *graph.Bipartite      // n×n request multigraph, Reset per call
	hrelFact   *edgecolor.Factorizer // request-graph 1-factorization arena
	hrelSrc    []int                 // per-processor send counts (padding)
	hrelDst    []int                 // per-processor receive counts (padding)
	hrelAll    []Request             // padded request list, reused
	hrelColors []int                 // per-request factor index, reused
	hrelPi     []int                 // factor permutation scratch
	hrelReqAt  []int                 // source processor -> request id scratch
	hrelFColor []int                 // the current factor's relay colors
	hrelSlots  []popsnet.Slot        // the current factor's written slots
	hrelCl     classes               // the current factor's relay classes
}

// NewPlanner validates the POPS(d, g) shape and returns a Planner for it.
func NewPlanner(d, g int, opts Options) (*Planner, error) {
	nw, err := popsnet.NewNetwork(d, g)
	if err != nil {
		return nil, err
	}
	return NewPlannerFor(nw, opts), nil
}

// NewPlannerFor returns a Planner for an already-validated network.
func NewPlannerFor(nw popsnet.Network, opts Options) *Planner {
	pl := &Planner{nw: nw, opts: opts, seen: make([]bool, nw.N())}
	if nw.D > 1 {
		pl.demand = graph.New(nw.G, nw.G)
		pl.fact = edgecolor.NewFactorizer()
		pl.seenGroup = make([]bool, nw.G)
		pl.colorCount = max(nw.D, nw.G)
	}
	return pl
}

// Plan computes the Theorem 2 routing of pi, reusing the planner's internal
// buffers. The returned Plan owns all memory it references (pi is copied
// into it) and stays valid across subsequent Plan calls even if the caller
// reuses the pi slice.
func (pl *Planner) Plan(pi []int) (*Plan, error) {
	return pl.PlanCtx(context.Background(), pi)
}

// PlanCtx is Plan with a context. It is the collected form of StartPlanCtx,
// so the batch plan and the streamed plan come from one construction: an
// already-cancelled ctx is reported before any planning work, and
// cancellation is re-checked before each color class is peeled.
func (pl *Planner) PlanCtx(ctx context.Context, pi []int) (*Plan, error) {
	ps, err := pl.StartPlanCtx(ctx, pi)
	if err != nil {
		return nil, err
	}
	plan, err := ps.Collect()
	return pl.verified(ctx, plan, err)
}

// verified hands out a collected plan, replayed on the simulator first under
// Options.Verify.
func (pl *Planner) verified(ctx context.Context, plan *Plan, err error) (*Plan, error) {
	if err != nil || !pl.opts.Verify {
		return plan, err
	}
	sp := obs.SpanFromContext(ctx)
	sp.Begin(obs.PhaseVerify)
	defer sp.End()
	if _, err := plan.Verify(); err != nil {
		return nil, fmt.Errorf("core: %s schedule failed verification: %w", plan.Strategy, err)
	}
	return plan, nil
}

// checkClass verifies the fair-distribution invariants for one color class:
// exactly min(d, g) packets (equations (5)/(7)) repeating neither a source
// group (eq (4)) nor a destination group (eq (6)). Each class touches at
// most min(d, g) groups, so one g-sized table with undo-resets keeps the
// whole check O(len(class)) regardless of the shape's aspect ratio.
func (pl *Planner) checkClass(pi, class []int, c int) error {
	nw := pl.nw
	d, g := nw.D, nw.G
	want := d
	if g < d {
		want = g
	}
	seen := pl.seenGroup
	if len(class) != want {
		return fmt.Errorf("core: eq (5)/(7) violated: color %d has %d packets, want %d", c, len(class), want)
	}
	for i, p := range class {
		h := nw.Group(p)
		if seen[h] {
			for _, q := range class[:i] {
				seen[nw.Group(q)] = false
			}
			return fmt.Errorf("core: eq (4) violated: source group %d repeats color %d", h, c)
		}
		seen[h] = true
	}
	for _, p := range class {
		seen[nw.Group(p)] = false
	}
	for i, p := range class {
		h := nw.Group(pi[p])
		if seen[h] {
			for _, q := range class[:i] {
				seen[nw.Group(pi[q])] = false
			}
			return fmt.Errorf("core: eq (6) violated: destination group %d repeats color %d", h, c)
		}
		seen[h] = true
	}
	for _, p := range class {
		seen[nw.Group(pi[p])] = false
	}
	return nil
}
