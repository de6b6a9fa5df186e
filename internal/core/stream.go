package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"pops/internal/edgecolor"
	"pops/internal/graph"
	"pops/internal/obs"
	"pops/internal/perms"
	"pops/internal/popsnet"
)

// StreamedSlot is one increment of a streaming plan: the fragment of
// schedule slot Slot contributed by one relay color class. Within a round,
// every color class maps to a distinct intermediate group and its packets
// are ranked by processor index alone, so each class independently
// determines a contiguous, conflict-free block of both of its round's
// slots — that per-class independence is what makes slot delivery
// streamable at all.
//
// A stream writes each fragment into a buffer it reuses, so a fragment is
// valid until the stream's next Next call: a consumer copies what it keeps.
// Fragments of one slot can arrive interleaved with other slots' (the
// Euler-split backend peels out of class order); to rebuild whole slots,
// copy each fragment to its Offset.
type StreamedSlot struct {
	Slot   int // index of the schedule slot this fragment belongs to
	Color  int // relay color class that produced the fragment; -1 for whole-slot fragments
	Offset int // position of the fragment's first send/recv within its slot
	Final  bool
	Sends  []popsnet.Send
	Recvs  []popsnet.Recv
}

// PlanStream is an in-progress Theorem 2 planning whose schedule is
// delivered incrementally: StartPlanCtx validates the permutation and builds
// the demand graph, and each Next call resumes the balanced edge coloring
// just long enough to peel one more color class, writing that class's two
// slot fragments into the planner's fragment buffer. The paper's
// fair-distribution invariants (equations (4)–(7)) are re-checked per class
// as it lands. The Plan — π and the colors — is available from Collect or
// Plan once every class is peeled; Collect peels the rest without writing a
// slot, and Planner.Plan and PlanCtx are this stream collected.
//
// A PlanStream owns its Planner until it is exhausted or abandoned: any
// other call on the same Planner supersedes the stream mid-flight.
type PlanStream struct {
	pl     *Planner
	ctx    context.Context
	span   *obs.Span // trace span carried by ctx at Start, nil when untraced
	pi     []int
	colors []int
	stream *edgecolor.Stream // nil for the direct d = 1 plan
	rounds int
	want   int // packets per class, min(d, g)

	pending    StreamedSlot // second fragment of the factor just peeled
	hasPending bool
	emitted    int // fragments emitted, or accounted for by a drain
	plan       *Plan
	err        error
	done       bool
}

// StartPlanCtx begins a streaming Theorem 2 planning of pi. It performs the
// same validation as Plan, builds the demand multigraph once, and returns
// a stream whose Next calls deliver the schedule fragment by fragment. The
// first fragment is ready after a single color class has been peeled.
// Under the default Euler-split engine that is the first 1-factor of the
// demand graph, after log2 d halvings — about 2m edge visits for m = n
// edges and power-of-two d, against about m·log2 d for the whole coloring
// a batch Plan call waits for. The other backends color whole first.
// Cancellation of ctx is checked between factors (before each color class
// is peeled), so a cancelled stream stops factor production at its next
// Next call with ctx.Err() as the sticky error. An already-cancelled ctx is
// reported here, before any setup.
func (pl *Planner) StartPlanCtx(ctx context.Context, pi []int) (*PlanStream, error) {
	return pl.startPlan(ctx, pi, false)
}

// startPlan is StartPlanCtx. An h-relation factor's stream (factor) borrows
// pi and the planner's factor-color scratch instead of owning copies.
func (pl *Planner) startPlan(ctx context.Context, pi []int, factor bool) (*PlanStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nw := pl.nw
	if len(pi) != nw.N() {
		return nil, fmt.Errorf("core: permutation has length %d, want n = %d", len(pi), nw.N())
	}
	if err := perms.ValidateInto(pi, pl.seen); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ps := &PlanStream{pl: pl, ctx: ctx, span: obs.SpanFromContext(ctx), pi: pi}
	if !factor {
		ps.pi = copyPerm(pi)
	}
	// Stream setup (demand build, coloring kickoff) and the peeled factors
	// count as factorize time on the trace span. An untraced plan skips the
	// clock reads altogether.
	if ps.span != nil {
		setupStart := time.Now()
		defer func() { ps.span.Add(obs.PhaseFactorize, time.Since(setupStart)) }()
	}
	if nw.D == 1 {
		return ps, nil
	}

	pl.demand.Reset()
	for p := 0; p < nw.N(); p++ {
		pl.demand.AddEdge(nw.Group(p), nw.Group(pi[p]))
	}
	g := nw.G
	colorCount := pl.colorCount
	ps.rounds = ceilDiv(colorCount, g)
	ps.want = min(nw.D, g)
	if factor {
		pl.hrelFColor = graph.ResizeInts(pl.hrelFColor, nw.N())
		ps.colors = pl.hrelFColor
	} else {
		ps.colors = make([]int, nw.N())
	}
	// Every class has want packets (checked as it lands), so class c sits at
	// offset (c mod g)·want of its round's slots; remaining counts the
	// classes each slot awaits, for the Final flags.
	pl.remaining = graph.ResizeInts(pl.remaining, 2*ps.rounds)
	for k := 0; k < ps.rounds; k++ {
		count := min((k+1)*g, colorCount) - k*g
		pl.remaining[2*k], pl.remaining[2*k+1] = count, count
	}

	ps.stream = pl.fact.StartBalancedCtx(ctx, pl.demand, colorCount, pl.opts.Algorithm)
	if err := ps.stream.Err(); err != nil {
		return nil, fmt.Errorf("core: coloring demand graph: %w", err)
	}
	return ps, nil
}

// Next emits the next slot fragment, valid until the following Next call.
// It returns ok == false once every fragment has been delivered (the
// assembled plan is then available from Plan/Collect) or when the stream
// has failed — the two cases are told apart by Err.
func (ps *PlanStream) Next() (StreamedSlot, bool) { return ps.next(true) }

// next advances the stream by one fragment. Without write it peels and
// checks the classes but writes no slot: that is how Collect drains.
func (ps *PlanStream) next(write bool) (StreamedSlot, bool) {
	if ps.err != nil || ps.done {
		return StreamedSlot{}, false
	}
	if err := ps.ctx.Err(); err != nil {
		ps.err = err
		return StreamedSlot{}, false
	}
	pl := ps.pl
	ps.emitted++
	switch {
	case ps.hasPending:
		ps.hasPending = false
		ps.finishIfDelivered()
		return ps.pending, true
	case ps.stream == nil:
		// Direct d = 1 plan: one slot, delivered whole.
		if write {
			writeDirect(ps.pi, &pl.frag[0])
		}
		ps.finishIfDelivered()
		return StreamedSlot{Slot: 0, Color: -1, Final: true, Sends: pl.frag[0].Sends, Recvs: pl.frag[0].Recvs}, true
	}

	// A class peeled for an outside caller is timed on its own; a drain is
	// timed once as a whole.
	var factorStart time.Time
	if write && ps.span != nil {
		factorStart = time.Now()
	}
	c, ok, err := ps.stream.Next(ps.colors)
	if err != nil {
		ps.err = fmt.Errorf("core: coloring demand graph: %w", err)
		return StreamedSlot{}, false
	}
	if !ok {
		ps.err = fmt.Errorf("core: internal error: coloring ended after %d of %d fragments", ps.emitted-1, ps.FragmentCount())
		return StreamedSlot{}, false
	}
	if c < 0 || c >= pl.colorCount {
		ps.err = fmt.Errorf("core: color %d outside [0,%d)", c, pl.colorCount)
		return StreamedSlot{}, false
	}
	// The class arrives in factorization order; rank assignment needs it in
	// processor order (that is what makes arrivals per group hit distinct
	// relays, and what the reference builder uses).
	class := append(pl.classBuf[:0], ps.stream.Factor()...)
	slices.Sort(class)
	pl.classBuf = class
	if err := pl.checkClass(ps.pi, class, c); err != nil {
		ps.err = err
		return StreamedSlot{}, false
	}

	k := c / pl.nw.G
	if write {
		for s := range pl.frag {
			pl.frag[s].Sends, pl.frag[s].Recvs = resize(pl.frag[s].Sends, ps.want), resize(pl.frag[s].Recvs, ps.want)
		}
		relaySchedule(pl.nw, ps.pi, class, c, pl.frag[0], pl.frag[1])
	}
	pl.remaining[2*k]--
	pl.remaining[2*k+1]--
	off := (c - k*pl.nw.G) * ps.want
	ps.pending = StreamedSlot{
		Slot: 2*k + 1, Color: c, Offset: off, Final: pl.remaining[2*k+1] == 0,
		Sends: pl.frag[1].Sends, Recvs: pl.frag[1].Recvs,
	}
	ps.hasPending = true
	if write && ps.span != nil {
		ps.span.Add(obs.PhaseFactorize, time.Since(factorStart))
	}
	return StreamedSlot{
		Slot: 2 * k, Color: c, Offset: off, Final: pl.remaining[2*k] == 0,
		Sends: pl.frag[0].Sends, Recvs: pl.frag[0].Recvs,
	}, true
}

// drain peels every remaining color class without writing a slot, so a
// collected plan costs its colors alone. A traced drain is timed once.
func (ps *PlanStream) drain() error {
	if ps.span != nil {
		start := time.Now()
		defer func() { ps.span.Add(obs.PhaseFactorize, time.Since(start)) }()
	}
	for {
		if _, ok := ps.next(false); !ok {
			return ps.err
		}
	}
}

// finishIfDelivered assembles the plan once the last fragment is out.
func (ps *PlanStream) finishIfDelivered() {
	if ps.emitted < ps.FragmentCount() {
		return
	}
	ps.done = true
	if ps.plan == nil {
		ps.plan = &Plan{
			Net: ps.pl.nw, Pi: ps.pi, Strategy: StrategyTheoremTwo,
			Colors: ps.colors, Rounds: ps.rounds,
		}
	}
}

// Collect peels the remaining color classes, writing no slot, and returns
// the assembled plan. It never replays the schedule: PlanCtx and the public
// layer do that under Options.Verify.
func (ps *PlanStream) Collect() (*Plan, error) {
	if err := ps.drain(); err != nil {
		return nil, err
	}
	return ps.plan, nil
}

// Plan returns the assembled plan once the stream is exhausted, or nil
// while fragments are still outstanding.
func (ps *PlanStream) Plan() *Plan { return ps.plan }

// Err returns the stream's sticky error, if any.
func (ps *PlanStream) Err() error { return ps.err }

// SlotCount returns the total number of slots of the final schedule.
func (ps *PlanStream) SlotCount() int { return max(1, 2*ps.rounds) }

// FragmentCount returns the total number of fragments the stream emits:
// two per color class, or one for the direct d = 1 plan.
func (ps *PlanStream) FragmentCount() int { return max(1, 2*ps.pl.colorCount) }

// ReplayStream streams a finished plan as whole-slot fragments (Color -1),
// writing one unit at a time — a relay round, a d = 1 plan's slot, or an
// h-relation factor's slots — into a buffer of its own. Cache hits and the
// plans built whole stream this way; Plan.Schedule writes a replay into
// fresh storage.
type ReplayStream struct {
	plan *Plan
	per  int            // slots per unit
	buf  []popsnet.Slot // the unit last written
	next int
	cl   classes // relay classes: the plan's, or the current factor's
	// H-relation plans: the padded requests grouped by factor, and the
	// current factor's permutation, colors and request ids by source.
	all               []Request
	byFactor          classes
	pi, colors, reqAt []int
}

// Replay returns a stream over plan's slots.
func Replay(plan *Plan) *ReplayStream {
	nw := plan.Net
	rs := &ReplayStream{plan: plan, per: OptimalSlots(nw.D, nw.G)}
	switch {
	case plan.fixed != nil:
		return rs
	case plan.Strategy == StrategyHRelation:
		rs.all = plan.padded()
		factor := make([]int, len(plan.codes))
		for k, code := range plan.codes {
			factor[k] = int(code) / max(nw.D, nw.G)
		}
		rs.byFactor.sort(factor, plan.H)
		rs.pi, rs.colors, rs.reqAt = make([]int, nw.N()), make([]int, nw.N()), make([]int, nw.N())
	case plan.Colors != nil:
		rs.per = 2
		rs.cl.sort(plan.Colors, plan.Rounds*nw.G)
	}
	rs.buf = make([]popsnet.Slot, rs.per)
	return rs
}

// write writes unit u's rs.per slots into out, reusing its storage.
func (rs *ReplayStream) write(u int, out []popsnet.Slot) {
	p, nw := rs.plan, rs.plan.Net
	switch {
	case p.Strategy == StrategyHRelation:
		for _, id := range rs.byFactor.class(u) {
			r := rs.all[id]
			rs.pi[r.Src], rs.colors[r.Src], rs.reqAt[r.Src] = r.Dst, int(p.codes[id])%max(nw.D, nw.G), id
		}
		writeFactor(nw, rs.pi, rs.colors, rs.reqAt, &rs.cl, out)
	case p.Colors != nil:
		writeRound(nw, p.Pi, &rs.cl, u, out)
	default:
		writeDirect(p.Pi, &out[0])
	}
}

// Next emits the next whole slot; ok is false after the last one.
func (rs *ReplayStream) Next() (StreamedSlot, bool) {
	i := rs.next
	if i >= rs.plan.SlotCount() {
		return StreamedSlot{}, false
	}
	rs.next++
	if fixed := rs.plan.fixed; fixed != nil {
		return StreamedSlot{Slot: i, Color: -1, Final: true, Sends: fixed.Slots[i].Sends, Recvs: fixed.Slots[i].Recvs}, true
	}
	if i%rs.per == 0 {
		rs.write(i/rs.per, rs.buf)
	}
	slot := &rs.buf[i%rs.per]
	return StreamedSlot{Slot: i, Color: -1, Final: true, Sends: slot.Sends, Recvs: slot.Recvs}, true
}

// Collect skips the remaining slots and returns the plan.
func (rs *ReplayStream) Collect() (*Plan, error) {
	rs.next = rs.plan.SlotCount()
	return rs.plan, nil
}

// Plan returns the replayed plan.
func (rs *ReplayStream) Plan() *Plan { return rs.plan }

// Err is always nil: a replay cannot fail.
func (rs *ReplayStream) Err() error { return nil }

// SlotCount returns the number of slots of the plan.
func (rs *ReplayStream) SlotCount() int { return rs.plan.SlotCount() }

// FragmentCount returns how many fragments the replay emits: one per slot.
func (rs *ReplayStream) FragmentCount() int { return rs.plan.SlotCount() }
