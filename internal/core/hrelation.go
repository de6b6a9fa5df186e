package core

import (
	"context"
	"fmt"
	"slices"

	"pops/internal/edgecolor"
	"pops/internal/graph"
	"pops/internal/popsnet"
)

// Request is one packet demand of an h-relation: move a packet from Src to
// Dst. Processors may appear in up to h requests as source and up to h as
// destination.
type Request struct {
	Src, Dst int
}

// Degree returns h: the maximum number of times any processor occurs as a
// source or as a destination in reqs.
func Degree(n int, reqs []Request) (int, error) {
	srcCount := make([]int, n)
	dstCount := make([]int, n)
	for i, r := range reqs {
		if r.Src < 0 || r.Src >= n || r.Dst < 0 || r.Dst >= n {
			return 0, fmt.Errorf("core: request %d (%d→%d) out of range [0,%d)", i, r.Src, r.Dst, n)
		}
		srcCount[r.Src]++
		dstCount[r.Dst]++
	}
	h := 0
	for p := 0; p < n; p++ {
		if srcCount[p] > h {
			h = srcCount[p]
		}
		if dstCount[p] > h {
			h = dstCount[p]
		}
	}
	return h, nil
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
// scratch: the schedule is a single fan-out slot.
func BroadcastPlan(nw popsnet.Network, speaker int) (*Plan, error) {
	sched, err := popsnet.OneToAll(nw, speaker, speaker)
	if err != nil {
		return nil, err
	}
	return &Plan{Net: nw, Strategy: StrategyOneToAll, Speaker: speaker, sched: sched}, nil
}

// PlanHRelation routes an h-relation on the planner's POPS(d, g) network:
// the padded request multigraph is decomposed into h permutations (König),
// each routed by Theorem 2, for h · OptimalSlots(d, g) slots in total. It is
// the batch form of StartHRelation — both drain the same arena steppers, so
// their schedules are byte-identical. The counting lower bound for a
// saturated h-relation of derangements is ⌈h·d/g⌉ slots (h·n packets, g² per
// slot), so the schedule is within a factor 2 of optimal for d ≥ g — the
// paper's h = 1 guarantee one level up. The request-graph factorization runs
// on a second arena held by the planner, and all padding/relabeling scratch
// is reused across calls, so repeated h-relation planning allocates only
// what the returned Plan retains.
func (pl *Planner) PlanHRelation(ctx context.Context, reqs []Request) (*Plan, error) {
	ps, err := pl.StartHRelation(ctx, reqs)
	if err != nil {
		return nil, err
	}
	return ps.Collect()
}

// HRelationStream is an in-progress h-relation planning whose schedule is
// delivered incrementally: each König 1-factor of the request multigraph is
// consumed from the coloring stream as it is peeled, routed as a Theorem 2
// permutation, and emitted as whole-slot fragments — so the first slots are
// ready after a single factor, long before the request-graph factorization
// behind a batch PlanHRelation completes. Factor k's slots always occupy
// schedule positions [k·OptimalSlots, (k+1)·OptimalSlots), so fragments of
// different factors can arrive out of factor order (the Euler-split backend
// peels factors out of class order) and still reassemble by Slot index.
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
	factors  [][]int           // factor index -> real request ids, ascending
	sched    *popsnet.Schedule
	home     []int
	want     []int

	ready    []StreamedSlot // slots of routed factors awaiting emission
	readyIdx int
	routed   int // request-graph factors routed so far
	emitted  int
	total    int
	plan     *Plan
	verified bool
	err      error
	done     bool
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
	ps := &HRelationStream{
		pl:       pl,
		ctx:      ctx,
		reqs:     append([]Request(nil), reqs...),
		h:        h,
		slotsPer: OptimalSlots(nw.D, nw.G),
		sched:    &popsnet.Schedule{Net: nw},
	}
	n := nw.N()
	if h == 0 {
		ps.plan = ps.assemble()
		return ps, nil
	}
	if err := pl.padHRelation(ps); err != nil {
		return nil, err
	}
	ps.total = h * ps.slotsPer
	ps.factors = make([][]int, h)
	ps.sched.Slots = make([]popsnet.Slot, ps.total)

	// Delivery contract: packet k (= request k, then padding dummies) starts
	// at its source; dummies have no required destination.
	all := pl.hrelAll
	ps.home = make([]int, len(all))
	ps.want = make([]int, len(all))
	for k, r := range all {
		ps.home[k] = r.Src
		if k < len(reqs) {
			ps.want[k] = r.Dst
		} else {
			ps.want[k] = -1
		}
	}

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

// degreeInto is the pooled-scratch form of Degree: it validates reqs
// against the planner's shape and counts per-processor sends and receives
// into pl.hrelSrc/pl.hrelDst — which padHRelation then consumes directly,
// so the steady-state h-relation path neither allocates count slices nor
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

// padHRelation extends the relation with dummy requests until every
// processor has exactly h sends and h receives, matching source deficits to
// destination deficits in ascending processor order. It consumes the
// per-processor counts degreeInto left in pl.hrelSrc/pl.hrelDst; the padded
// list lands in pl.hrelAll (reused across calls).
func (pl *Planner) padHRelation(ps *HRelationStream) error {
	n := pl.nw.N()
	h := ps.h
	all := append(pl.hrelAll[:0], ps.reqs...)
	si, di := 0, 0
	for {
		for si < n && pl.hrelSrc[si] == h {
			si++
		}
		for di < n && pl.hrelDst[di] == h {
			di++
		}
		if si == n || di == n {
			break
		}
		all = append(all, Request{Src: si, Dst: di})
		pl.hrelSrc[si]++
		pl.hrelDst[di]++
	}
	pl.hrelAll = all
	if si != n || di != n {
		// Total send deficit always equals total receive deficit, so this is
		// unreachable unless the counting above is broken.
		return fmt.Errorf("core: internal h-relation padding imbalance (si=%d, di=%d)", si, di)
	}
	return nil
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
	for ps.readyIdx >= len(ps.ready) {
		if ps.routed >= ps.h {
			ps.finish()
			return StreamedSlot{}, false
		}
		if err := ps.routeNextFactor(); err != nil {
			ps.err = err
			return StreamedSlot{}, false
		}
	}
	frag := ps.ready[ps.readyIdx]
	ps.readyIdx++
	ps.emitted++
	if ps.emitted >= ps.total {
		ps.finish()
	}
	return frag, true
}

// routeNextFactor peels one more 1-factor of the request multigraph from
// the coloring stream, routes it as a full Theorem 2 permutation on the
// planner's first arena, and queues its relabeled slots for emission.
func (ps *HRelationStream) routeNextFactor() error {
	pl := ps.pl
	if ps.ctx != nil {
		if err := ps.ctx.Err(); err != nil {
			return err
		}
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

	// The factor arrives in peel order; request ids are sorted so that
	// Factors listings — and therefore the assembled plan — match the batch
	// construction, which scans colors in ascending edge id order.
	ids := append(pl.hrelIDs[:0], ps.stream.Factor()...)
	slices.Sort(ids)
	pl.hrelIDs = ids

	n := pl.nw.N()
	all := pl.hrelAll
	pl.hrelPi = graph.ResizeInts(pl.hrelPi, n)
	pl.hrelReqAt = graph.ResizeInts(pl.hrelReqAt, n)
	for _, id := range ids {
		r := all[id]
		pl.hrelPi[r.Src] = r.Dst
		pl.hrelReqAt[r.Src] = id
	}
	real := make([]int, 0, len(ids))
	for _, id := range ids {
		if id < len(ps.reqs) {
			real = append(real, id)
		}
	}
	ps.factors[factorID] = real

	// Route the factor as a permutation. Per-factor verification is
	// redundant inside an h-relation — the final plan is verified as a
	// whole by Collect — so the planner's Verify option is masked for the
	// sub-plan (the stream owns the worker, so the toggle cannot race).
	savedVerify := pl.opts.Verify
	pl.opts.Verify = false
	sub, err := pl.PlanCtx(ps.ctx, pl.hrelPi)
	pl.opts.Verify = savedVerify
	if err != nil {
		return fmt.Errorf("core: routing factor %d: %w", factorID, err)
	}

	// Relabel the factor's slots into their fixed block of the schedule:
	// core packet ids equal source processors, which hrelReqAt maps back to
	// request ids. Recvs carry no packet ids and are aliased as-is.
	base := factorID * ps.slotsPer
	for s, slot := range sub.Schedule().Slots {
		out := popsnet.Slot{Recvs: slot.Recvs, Sends: make([]popsnet.Send, 0, len(slot.Sends))}
		for _, snd := range slot.Sends {
			snd.Packet = pl.hrelReqAt[snd.Packet]
			out.Sends = append(out.Sends, snd)
		}
		ps.sched.Slots[base+s] = out
		ps.ready = append(ps.ready, StreamedSlot{
			Slot: base + s, Color: factorID, Offset: 0, Final: true,
			Sends: out.Sends, Recvs: out.Recvs,
		})
	}
	ps.routed++
	return nil
}

// finish assembles the plan once the last slot is out.
func (ps *HRelationStream) finish() {
	if ps.done {
		return
	}
	ps.done = true
	if ps.plan == nil {
		ps.plan = ps.assemble()
	}
}

func (ps *HRelationStream) assemble() *Plan {
	return &Plan{
		Net: ps.pl.nw, Strategy: StrategyHRelation,
		Reqs: ps.reqs, H: ps.h, Factors: ps.factors,
		home: ps.home, want: ps.want, sched: ps.sched,
	}
}

// Collect drains the remaining slots and returns the assembled plan,
// byte identical to what PlanHRelation would have produced for the same
// requests. Under Options.Verify the completed schedule is replayed on the
// simulator and every real request checked delivered.
func (ps *HRelationStream) Collect() (*Plan, error) {
	for {
		if _, ok := ps.Next(); !ok {
			break
		}
	}
	if ps.err != nil {
		return nil, ps.err
	}
	if ps.pl.opts.Verify && !ps.verified {
		if _, err := ps.plan.Verify(); err != nil {
			ps.err = fmt.Errorf("core: h-relation schedule failed verification: %w", err)
			return nil, ps.err
		}
		ps.verified = true
	}
	return ps.plan, nil
}

// Plan returns the assembled plan once the stream is exhausted, or nil
// while slots are still outstanding. Unlike Collect it never replays the
// schedule on the simulator.
func (ps *HRelationStream) Plan() *Plan { return ps.plan }

// Err returns the stream's sticky error, if any.
func (ps *HRelationStream) Err() error { return ps.err }

// SlotCount returns the total number of slots of the final schedule:
// h · OptimalSlots(d, g).
func (ps *HRelationStream) SlotCount() int { return ps.total }

// FragmentCount returns how many fragments the stream emits: one per slot.
func (ps *HRelationStream) FragmentCount() int { return ps.total }
