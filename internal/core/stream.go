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
// Fragments alias the final plan's schedule storage: they stay valid for
// the life of the plan and must not be modified. Fragments of one slot can
// arrive interleaved with fragments of other slots (the Euler-split backend
// peels factors out of class order); consumers that need whole slots in
// schedule order collect the stream or buffer until Final.
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
// just long enough to peel one more color class, emitting that class's two
// slot fragments. The paper's fair-distribution invariants (equations
// (4)–(7)) are re-checked per class as it lands rather than at the end.
// Once the final fragment has been emitted, the accumulated Plan is
// available from Collect or Plan; Planner.Plan and PlanCtx are this stream
// drained.
//
// A PlanStream owns its Planner until it is exhausted or abandoned: any
// other call on the same Planner supersedes the stream mid-flight.
type PlanStream struct {
	pl     *Planner
	ctx    context.Context
	span   *obs.Span // trace span carried by ctx at Start, nil when untraced
	pi     []int
	colors []int
	sched  *popsnet.Schedule
	stream *edgecolor.Stream // nil for the direct d = 1 plan
	rounds int
	want   int // packets per class, min(d, g)

	pending    StreamedSlot // second fragment of the factor just peeled
	hasPending bool
	emitted    int // fragments emitted
	total      int // fragments the stream will emit
	plan       *Plan
	verified   bool
	err        error
	done       bool
}

// StartPlanCtx begins a streaming Theorem 2 planning of pi. It performs the
// same validation as Plan, builds the demand multigraph once, and returns
// a stream whose Next calls deliver the schedule fragment by fragment. The
// first fragment is ready after a single color class has been peeled —
// for d < g, right after the first perfect matching of the demand graph —
// long before the full factorization that a batch Plan call must wait for.
// Cancellation of ctx is checked between factors (before each color class
// is peeled), so a cancelled stream stops factor production at its next
// Next call with ctx.Err() as the sticky error. An already-cancelled ctx is
// reported here, before any setup.
func (pl *Planner) StartPlanCtx(ctx context.Context, pi []int) (*PlanStream, error) {
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
	ps := &PlanStream{pl: pl, ctx: ctx, span: obs.SpanFromContext(ctx), pi: copyPerm(pi)}
	// Stream setup (demand build, schedule preallocation, coloring kickoff)
	// and each peeled factor count as factorize time on the trace span. An
	// untraced plan skips the clock reads altogether.
	if ps.span != nil {
		setupStart := time.Now()
		defer func() { ps.span.Add(obs.PhaseFactorize, time.Since(setupStart)) }()
	}
	if nw.D == 1 {
		sched, err := directSchedule(nw, ps.pi)
		if err != nil {
			return nil, err
		}
		ps.sched = sched
		ps.plan = &Plan{Net: nw, Pi: ps.pi, Strategy: StrategyTheoremTwo, sched: sched}
		ps.total = 1
		return ps, nil
	}

	pl.demand.Reset()
	for p := 0; p < nw.N(); p++ {
		pl.demand.AddEdge(nw.Group(p), nw.Group(pi[p]))
	}
	d, g := nw.D, nw.G
	colorCount := pl.colorCount
	ps.rounds = ceilDiv(colorCount, g)
	ps.want = min(d, g)
	ps.total = 2 * colorCount
	ps.colors = make([]int, nw.N())

	// The schedule is preallocated at its exact final size: every class has
	// exactly want packets (checked as each class lands), so the block each
	// fragment occupies inside its slot is known up front, and fragments can
	// be written straight into the plan's storage in any arrival order.
	ps.sched = &popsnet.Schedule{Net: nw, Slots: make([]popsnet.Slot, 2*ps.rounds)}
	pl.remaining = graph.ResizeInts(pl.remaining, 2*ps.rounds)
	for k := 0; k < ps.rounds; k++ {
		lo, hi := k*g, (k+1)*g
		if hi > colorCount {
			hi = colorCount
		}
		moved := (hi - lo) * ps.want
		for s := 0; s < 2; s++ {
			ps.sched.Slots[2*k+s] = popsnet.Slot{
				Sends: make([]popsnet.Send, moved),
				Recvs: make([]popsnet.Recv, moved),
			}
			pl.remaining[2*k+s] = hi - lo
		}
	}

	ps.stream = pl.fact.StartBalancedCtx(ctx, pl.demand, colorCount, pl.opts.Algorithm)
	if err := ps.stream.Err(); err != nil {
		return nil, fmt.Errorf("core: coloring demand graph: %w", err)
	}
	return ps, nil
}

// Next emits the next slot fragment. It returns ok == false once every
// fragment has been delivered (the assembled plan is then available from
// Plan/Collect) or when the stream has failed — the two cases are told
// apart by Err.
func (ps *PlanStream) Next() (StreamedSlot, bool) {
	if ps.err != nil || ps.done {
		return StreamedSlot{}, false
	}
	if ps.ctx != nil {
		if err := ps.ctx.Err(); err != nil {
			ps.err = err
			return StreamedSlot{}, false
		}
	}
	if ps.hasPending {
		ps.hasPending = false
		ps.emitted++
		frag := ps.pending
		ps.finishIfDelivered()
		return frag, true
	}
	if ps.stream == nil {
		// Direct d = 1 plan: one slot, delivered whole.
		ps.emitted++
		slot := &ps.sched.Slots[0]
		ps.finishIfDelivered()
		return StreamedSlot{Slot: 0, Color: -1, Final: true, Sends: slot.Sends, Recvs: slot.Recvs}, true
	}

	var factorStart time.Time
	if ps.span != nil {
		factorStart = time.Now()
	}
	c, ok, err := ps.stream.Next(ps.colors)
	if err != nil {
		ps.err = fmt.Errorf("core: coloring demand graph: %w", err)
		return StreamedSlot{}, false
	}
	if !ok {
		ps.err = fmt.Errorf("core: internal error: coloring ended after %d of %d fragments", ps.emitted, ps.total)
		return StreamedSlot{}, false
	}

	pl, nw := ps.pl, ps.pl.nw
	g := nw.G
	if c < 0 || c >= pl.colorCount {
		ps.err = fmt.Errorf("core: color %d outside [0,%d)", c, pl.colorCount)
		return StreamedSlot{}, false
	}
	// The class arrives in factorization order; rank assignment needs it in
	// processor order (that is what makes arrivals per group hit distinct
	// relays, and what the reference builder planFromColors uses).
	pl.classBuf = append(pl.classBuf[:0], ps.stream.Factor()...)
	slices.Sort(pl.classBuf)
	class := pl.classBuf
	if err := pl.checkClass(ps.pi, class, c); err != nil {
		ps.err = err
		return StreamedSlot{}, false
	}

	k, j := c/g, c%g
	lo := k * g
	off := (c - lo) * ps.want
	slot1 := &ps.sched.Slots[2*k]
	slot2 := &ps.sched.Slots[2*k+1]
	for rank, p := range class {
		relay := nw.Proc(j, rank)
		dest := ps.pi[p]
		slot1.Sends[off+rank] = popsnet.Send{Src: p, DestGroup: j, Packet: p}
		slot1.Recvs[off+rank] = popsnet.Recv{Proc: relay, SrcGroup: nw.Group(p)}
		slot2.Sends[off+rank] = popsnet.Send{Src: relay, DestGroup: nw.Group(dest), Packet: p}
		slot2.Recvs[off+rank] = popsnet.Recv{Proc: dest, SrcGroup: j}
	}
	end := off + ps.want
	pl.remaining[2*k]--
	pl.remaining[2*k+1]--
	frag1 := StreamedSlot{
		Slot: 2 * k, Color: c, Offset: off, Final: pl.remaining[2*k] == 0,
		Sends: slot1.Sends[off:end:end], Recvs: slot1.Recvs[off:end:end],
	}
	ps.pending = StreamedSlot{
		Slot: 2*k + 1, Color: c, Offset: off, Final: pl.remaining[2*k+1] == 0,
		Sends: slot2.Sends[off:end:end], Recvs: slot2.Recvs[off:end:end],
	}
	ps.hasPending = true
	ps.emitted++
	if ps.span != nil {
		ps.span.Add(obs.PhaseFactorize, time.Since(factorStart))
	}
	return frag1, true
}

// finishIfDelivered assembles the plan once the last fragment is out.
func (ps *PlanStream) finishIfDelivered() {
	if ps.emitted < ps.total {
		return
	}
	ps.done = true
	if ps.plan == nil {
		ps.plan = &Plan{
			Net: ps.pl.nw, Pi: ps.pi, Strategy: StrategyTheoremTwo,
			Colors: ps.colors, Rounds: ps.rounds, sched: ps.sched,
		}
	}
}

// Collect drains the remaining fragments and returns the assembled plan.
// Under Options.Verify the completed schedule is replayed on the simulator
// first.
func (ps *PlanStream) Collect() (*Plan, error) {
	for {
		if _, ok := ps.Next(); !ok {
			break
		}
	}
	if ps.err != nil {
		return nil, ps.err
	}
	if ps.pl.opts.Verify && !ps.verified {
		ps.span.Begin(obs.PhaseVerify)
		if _, err := ps.plan.Verify(); err != nil {
			ps.err = fmt.Errorf("core: schedule failed verification: %w", err)
			return nil, ps.err
		}
		ps.span.End()
		ps.verified = true
	}
	return ps.plan, nil
}

// Plan returns the assembled plan once the stream is exhausted, or nil
// while fragments are still outstanding. Unlike Collect it never replays
// the schedule on the simulator.
func (ps *PlanStream) Plan() *Plan { return ps.plan }

// Err returns the stream's sticky error, if any.
func (ps *PlanStream) Err() error { return ps.err }

// SlotCount returns the total number of slots of the final schedule.
func (ps *PlanStream) SlotCount() int { return len(ps.sched.Slots) }

// FragmentCount returns the total number of fragments the stream emits:
// two per color class, or one for the direct d = 1 plan.
func (ps *PlanStream) FragmentCount() int { return ps.total }
