package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"pops/internal/edgecolor"
	"pops/internal/graph"
	"pops/internal/popsnet"
)

// Request is one packet demand of an h-relation: move a packet from Src to
// Dst. Processors may appear in up to h requests as source and up to h as
// destination. The json tags are the wire schema's: internal/wire aliases
// this type.
type Request struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// PredictedHRelationSlots returns the slot cost of an h-relation plan:
// h · OptimalSlots(d, g).
func PredictedHRelationSlots(d, g, h int) int {
	return h * OptimalSlots(d, g)
}

// AllToAllRequests builds the complete-exchange relation on n processors:
// every processor sends one distinct packet to every other processor, an
// (n−1)-relation. The request order is deterministic: request index
// k·n + s (k = 0..n−2) moves the packet from processor s to (s+k+1) mod n.
func AllToAllRequests(n int) []Request {
	reqs := make([]Request, 0, n*(n-1))
	for k := 1; k < n; k++ {
		for s := 0; s < n; s++ {
			reqs = append(reqs, Request{Src: s, Dst: (s + k) % n})
		}
	}
	return reqs
}

// BroadcastPlan builds the paper's one-slot one-to-all schedule from the
// given speaker as a Plan (Strategy StrategyOneToAll). It needs no planner
// scratch: the schedule is a single fan-out slot, kept whole on the plan.
func BroadcastPlan(nw popsnet.Network, speaker int) (*Plan, error) {
	sched, err := popsnet.OneToAll(nw, speaker, speaker)
	if err != nil {
		return nil, err
	}
	return &Plan{Net: nw, Strategy: StrategyOneToAll, Speaker: speaker, fixed: sched}, nil
}

// PlanHRelation routes an h-relation on the planner's POPS(d, g) network:
// the padded request multigraph is decomposed into h permutations (König),
// each routed by Theorem 2, for h · OptimalSlots(d, g) slots in total. It is
// StartHRelation drained, just as PlanCtx is StartPlanCtx drained. The
// counting lower bound for a saturated h-relation of derangements is
// ⌈h·d/g⌉ slots (h·n packets, g² per slot), so the schedule is within a
// factor 2 of optimal for d ≥ g — the paper's h = 1 guarantee one level up.
// The request-graph factorization runs on a second arena held by the
// planner, and all padding/relabeling scratch is reused across calls, so
// repeated h-relation planning allocates only what the returned Plan
// retains.
func (pl *Planner) PlanHRelation(ctx context.Context, reqs []Request) (*Plan, error) {
	ps, err := pl.StartHRelation(ctx, reqs)
	if err != nil {
		return nil, err
	}
	plan, err := ps.Collect()
	return pl.verified(ctx, plan, err)
}

// HRelationStream is an in-progress h-relation planning whose schedule is
// delivered incrementally: each König 1-factor of the request multigraph is
// consumed from the coloring stream as it is peeled, routed as a Theorem 2
// permutation, and its slots written as whole-slot fragments into the
// planner's factor buffer — so the first slots are ready after a single
// factor, long before the request-graph factorization behind a batch
// PlanHRelation completes. Factor k's slots always occupy schedule
// positions [k·OptimalSlots, (k+1)·OptimalSlots), so fragments of
// different factors can arrive out of factor order (the Euler-split backend
// peels factors out of class order) and still reassemble by Slot index. A
// fragment is valid until the next Next call.
//
// Like PlanStream, an HRelationStream owns its Planner until exhausted or
// abandoned; cancellation of the start context is checked between factors.
type HRelationStream struct {
	pl       *Planner
	ctx      context.Context
	reqs     []Request // plan-owned snapshot
	h        int
	slotsPer int
	stream   *edgecolor.Stream // request-graph factor stream; nil for h == 0
	codes    []int32           // padded request -> factor·max(d, g) + color

	written int // the factor whose slots the planner's factor buffer holds
	left    int // slots of it not yet emitted
	routed  int // request-graph factors routed so far
	plan    *Plan
	err     error
	done    bool
}

// StartHRelation begins a streaming h-relation planning. It validates the
// requests, pads the relation to an h-regular multigraph, and returns a
// stream whose Next calls deliver the schedule slot by slot while later
// request factors are still being peeled. An already-cancelled ctx is
// reported here, before any setup.
func (pl *Planner) StartHRelation(ctx context.Context, reqs []Request) (*HRelationStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nw := pl.nw
	h, err := pl.degreeInto(reqs)
	if err != nil {
		return nil, err
	}
	n := nw.N()
	if h*n > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d-relation on %d processors exceeds %d padded requests", h, n, math.MaxInt32)
	}
	ps := &HRelationStream{
		pl:       pl,
		ctx:      ctx,
		reqs:     append([]Request(nil), reqs...),
		h:        h,
		slotsPer: OptimalSlots(nw.D, nw.G),
	}
	if h == 0 {
		ps.finish()
		return ps, nil
	}
	all := padRequests(pl.hrelAll[:0], reqs, h, pl.hrelSrc, pl.hrelDst)
	pl.hrelAll = all
	ps.codes = make([]int32, len(all))

	// The request-graph factorization streams from the planner's second
	// arena so the per-factor Theorem 2 routing (which colors the group
	// demand graph on the first arena) never supersedes it.
	if pl.hrelDemand == nil {
		pl.hrelDemand = graph.New(n, n)
	}
	pl.hrelDemand.Reset()
	for _, r := range all {
		pl.hrelDemand.AddEdge(r.Src, r.Dst)
	}
	if pl.hrelFact == nil {
		pl.hrelFact = edgecolor.NewFactorizer()
	}
	pl.hrelColors = graph.ResizeInts(pl.hrelColors, len(all))
	ps.stream = pl.hrelFact.StartCtx(ctx, pl.hrelDemand, pl.opts.Algorithm)
	if err := ps.stream.Err(); err != nil {
		return nil, fmt.Errorf("core: factorizing request graph: %w", err)
	}
	return ps, nil
}

// degreeInto returns h, the maximum number of times any processor occurs
// as a source or as a destination in reqs. It validates reqs against the
// planner's shape and counts per-processor sends and receives into
// pl.hrelSrc/pl.hrelDst — which padRequests then consumes directly, so
// the steady-state h-relation path neither allocates count slices nor
// scans the requests a second time.
func (pl *Planner) degreeInto(reqs []Request) (int, error) {
	n := pl.nw.N()
	pl.hrelSrc = graph.ResizeInts(pl.hrelSrc, n)
	pl.hrelDst = graph.ResizeInts(pl.hrelDst, n)
	clear(pl.hrelSrc)
	clear(pl.hrelDst)
	for i, r := range reqs {
		if r.Src < 0 || r.Src >= n || r.Dst < 0 || r.Dst >= n {
			return 0, fmt.Errorf("core: request %d (%d→%d) out of range [0,%d)", i, r.Src, r.Dst, n)
		}
		pl.hrelSrc[r.Src]++
		pl.hrelDst[r.Dst]++
	}
	h := 0
	for p := 0; p < n; p++ {
		if pl.hrelSrc[p] > h {
			h = pl.hrelSrc[p]
		}
		if pl.hrelDst[p] > h {
			h = pl.hrelDst[p]
		}
	}
	return h, nil
}

// padRequests appends reqs to all, then dummy requests until every
// processor has exactly h sends and h receives, matching source deficits to
// destination deficits in ascending processor order. src and dst hold the
// per-processor send and receive counts of reqs and are consumed. Total
// send deficit always equals total receive deficit, so both run out
// together.
func padRequests(all, reqs []Request, h int, src, dst []int) []Request {
	n := len(src)
	all = append(all, reqs...)
	si, di := 0, 0
	for {
		for si < n && src[si] == h {
			si++
		}
		for di < n && dst[di] == h {
			di++
		}
		if si == n || di == n {
			return all
		}
		all = append(all, Request{Src: si, Dst: di})
		src[si]++
		dst[di]++
	}
}

// padded recomputes an h-relation plan's padded request list — Reqs, then
// the dummies padRequests added when the plan was made.
func (p *Plan) padded() []Request {
	n := p.Net.N()
	src, dst := make([]int, n), make([]int, n)
	for _, r := range p.Reqs {
		src[r.Src]++
		dst[r.Dst]++
	}
	return padRequests(make([]Request, 0, p.H*n), p.Reqs, p.H, src, dst)
}

// Next emits the next slot of the schedule. It returns ok == false once
// every slot has been delivered (the assembled plan is then available from
// Collect) or when the stream has failed — the two cases are told apart by
// Err. Each fragment is one whole schedule slot: Color records the König
// factor that produced it, Offset is 0 and Final is true.
func (ps *HRelationStream) Next() (StreamedSlot, bool) {
	if ps.err != nil || ps.done {
		return StreamedSlot{}, false
	}
	for ps.left == 0 {
		if ps.routed >= ps.h {
			ps.finish()
			return StreamedSlot{}, false
		}
		if err := ps.routeNextFactor(true); err != nil {
			ps.err = err
			return StreamedSlot{}, false
		}
	}
	s := ps.slotsPer - ps.left
	ps.left--
	if ps.left == 0 && ps.routed == ps.h {
		ps.finish()
	}
	slot := &ps.pl.hrelSlots[s]
	return StreamedSlot{
		Slot: ps.written*ps.slotsPer + s, Color: ps.written, Offset: 0, Final: true,
		Sends: slot.Sends, Recvs: slot.Recvs,
	}, true
}

// routeNextFactor peels one more 1-factor of the request multigraph from
// the coloring stream, routes it as a full Theorem 2 permutation on the
// planner's first arena, and records each of its requests' (factor, color).
// With write it also writes the factor's slots into the planner's factor
// buffer for emission.
func (ps *HRelationStream) routeNextFactor(write bool) error {
	pl := ps.pl
	if err := ps.ctx.Err(); err != nil {
		return err
	}
	factorID, ok, err := ps.stream.Next(pl.hrelColors)
	if err != nil {
		return fmt.Errorf("core: factorizing request graph: %w", err)
	}
	if !ok {
		return fmt.Errorf("core: internal error: request factorization ended after %d of %d factors", ps.routed, ps.h)
	}
	if factorID < 0 || factorID >= ps.h {
		return fmt.Errorf("core: request factor %d outside [0,%d)", factorID, ps.h)
	}

	// The factor's ids arrive in peel order. Everything filled from them is
	// keyed by source or by request id, so their order does not matter.
	ids := ps.stream.Factor()
	nw := pl.nw
	n := nw.N()
	all := pl.hrelAll
	pl.hrelPi = graph.ResizeInts(pl.hrelPi, n)
	pl.hrelReqAt = graph.ResizeInts(pl.hrelReqAt, n)
	for _, id := range ids {
		r := all[id]
		pl.hrelPi[r.Src] = r.Dst
		pl.hrelReqAt[r.Src] = id
	}

	// Route the factor as a permutation. Its stream is drained for the
	// colors alone: no slot is written, and the final plan is verified as a
	// whole by PlanHRelation or the public layer.
	sub, err := pl.startPlan(ps.ctx, pl.hrelPi, true)
	if err == nil {
		err = sub.drain()
	}
	if err != nil {
		return fmt.Errorf("core: routing factor %d: %w", factorID, err)
	}
	colorCount := max(nw.D, nw.G)
	for _, id := range ids {
		c := 0
		if sub.colors != nil {
			c = sub.colors[all[id].Src]
		}
		ps.codes[id] = int32(factorID*colorCount + c)
	}
	ps.routed++
	if !write {
		return nil
	}

	pl.hrelSlots = resize(pl.hrelSlots, ps.slotsPer)
	writeFactor(nw, pl.hrelPi, sub.colors, pl.hrelReqAt, &pl.hrelCl, pl.hrelSlots)
	ps.written, ps.left = factorID, ps.slotsPer
	return nil
}

// finish assembles the plan once the last factor is routed. Its Factors
// are counted out of the request coloring (hrelColors holds each padded
// request's factor, as codes does) into one backing array: each factor
// lists its real ids ascending, without the dummies.
func (ps *HRelationStream) finish() {
	ps.done = true
	var factors [][]int
	if ps.h > 0 {
		var cl classes
		cl.sort(ps.pl.hrelColors[:len(ps.reqs)], ps.h)
		factors = make([][]int, ps.h)
		for k := range factors {
			factors[k] = slices.Clip(cl.class(k))
		}
	}
	ps.plan = &Plan{
		Net: ps.pl.nw, Strategy: StrategyHRelation,
		Reqs: ps.reqs, H: ps.h, Factors: factors, codes: ps.codes,
	}
}

// Collect routes the remaining factors, writing no slot, and returns the
// assembled plan, byte identical to what PlanHRelation would have produced
// for the same requests. Like PlanStream.Collect it never replays the
// schedule: PlanHRelation and the public layer do that under Options.Verify.
func (ps *HRelationStream) Collect() (*Plan, error) {
	for ps.err == nil && !ps.done {
		if ps.routed >= ps.h {
			ps.finish()
		} else if err := ps.routeNextFactor(false); err != nil {
			ps.err = err
		}
	}
	if ps.err != nil {
		return nil, ps.err
	}
	return ps.plan, nil
}

// Plan returns the assembled plan once the stream is exhausted, or nil
// while slots are still outstanding.
func (ps *HRelationStream) Plan() *Plan { return ps.plan }

// Err returns the stream's sticky error, if any.
func (ps *HRelationStream) Err() error { return ps.err }

// SlotCount returns the total number of slots of the final schedule:
// h · OptimalSlots(d, g).
func (ps *HRelationStream) SlotCount() int { return ps.h * ps.slotsPer }

// FragmentCount returns how many fragments the stream emits: one per slot.
func (ps *HRelationStream) FragmentCount() int { return ps.h * ps.slotsPer }
