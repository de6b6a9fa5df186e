package pops

import (
	"errors"
	"fmt"
	"time"

	"pops/internal/core"
	"pops/internal/obs"
)

// StreamedSlot is one increment of a streaming plan: the fragment of one
// schedule slot contributed by a single relay color class, or one whole
// slot. A fragment is valid until the stream's next Next call; copy what
// you keep. See ExecuteStream.
type StreamedSlot = core.StreamedSlot

// coreStream is the stream behind a PlanStream: the Theorem 2 per-class
// stream, the per-factor h-relation stream — whose batch forms, PlanCtx and
// PlanHRelation, are the same streams collected — or the replay of a
// finished plan (cache hits, broadcasts, fault plans).
type coreStream interface {
	Next() (core.StreamedSlot, bool)
	Collect() (*core.Plan, error)
	Plan() *core.Plan
	Err() error
	FragmentCount() int
	SlotCount() int
}

var (
	_ coreStream = (*core.PlanStream)(nil)
	_ coreStream = (*core.HRelationStream)(nil)
	_ coreStream = (*core.ReplayStream)(nil)
)

// PlanStream is an in-progress routing plan whose schedule is delivered
// incrementally: the first slot fragment is ready after a single color
// class (or, for h-relation workloads, a single König factor) has been
// peeled, long before the full factorization behind a batch Execute call
// completes. Drive it with Next, or Collect the remaining fragments into
// the finished *Plan — byte identical to what Execute would have returned
// for the same workload.
//
// Ownership contract: a live stream owns one of its Planner's worker
// planners. The worker returns to the pool when the stream is exhausted
// (Next returned false, or Collect was called), when the stream fails —
// including context cancellation, whose ctx.Err() surfaces through Err —
// or when an abandoned stream is Closed. Callers that stop consuming a
// stream early MUST call Close, or the worker planner leaks from the free
// list for the stream's lifetime. Close is idempotent and safe after
// exhaustion.
//
// A PlanStream is not safe for concurrent use, but different streams of one
// Planner — and concurrent Execute/RouteBatch calls — are independent.
type PlanStream struct {
	p      *Planner
	worker *core.Planner // nil for replays, which need no worker
	cs     coreStream    // its Plan is the finished plan: a replay's from the start
	cached bool

	// Memoization key (valid when hasKey): the workload cache key and kind.
	// hasKey is false without a plan cache, for broadcasts (never cached),
	// and for cache-hit replays.
	ckey   uint64
	ckind  uint8
	hasKey bool

	// verified reports that the plan has passed its WithVerify replay: in the
	// planner that built it whole, or in Collect. Memoization waits for it
	// under WithVerify.
	verified bool
	err      error
	done     bool

	// Plan-time observation state of planned (not cache-hit) streams: the
	// span carried by the ExecuteStream ctx and the stream's start time.
	// obsStart is non-zero only while the stream still owes its
	// PlanObserver notification; cache hits were observed at lookup.
	span     *obs.Span
	obsStart time.Time
}

// Next emits the next slot fragment; ok is false once the stream is
// exhausted (the assembled plan is then available from Collect) or has
// failed (see Err). A fragment is valid until the next Next call and must
// not be modified. Fragment granularity is one color class per fragment for
// permutation workloads, one whole slot for h-relation workloads and
// replays of finished plans; either way the fragments of one slot tile it
// exactly, and Final marks each slot's last fragment.
func (ps *PlanStream) Next() (StreamedSlot, bool) {
	if ps.done || ps.err != nil {
		return StreamedSlot{}, false
	}
	frag, ok := ps.cs.Next()
	if !ok {
		ps.err = ps.cs.Err()
		ps.finish()
		return StreamedSlot{}, false
	}
	return frag, true
}

// Collect finishes planning without writing the remaining fragments and
// returns the finished plan — Execute's result for the same workload, since
// Execute is this stream collected. Like Execute, a collected plan is
// memoized in the fingerprint cache. With WithVerify the completed schedule
// is replayed on the simulator first. Collect on a Closed (abandoned) stream
// returns an error: its worker planner is already back in the pool.
func (ps *PlanStream) Collect() (*Plan, error) {
	if !ps.done {
		_, ps.err = ps.cs.Collect()
		ps.finish()
	}
	// Exhausted, failed, or abandoned: never touch the released worker
	// again. A Next-drained plan still owes its WithVerify replay and
	// memoization; both need only the finished plan, not the worker.
	if ps.err != nil {
		return nil, ps.err
	}
	plan := ps.cs.Plan()
	if plan == nil {
		return nil, errors.New("pops: plan stream closed before completion")
	}
	if ps.p.opts.Verify && !ps.verified {
		ps.span.Begin(obs.PhaseVerify)
		if _, err := plan.Verify(); err != nil {
			ps.err = fmt.Errorf("pops: schedule failed verification: %w", err)
			return nil, ps.err
		}
		ps.span.End()
		ps.verified = true
		ps.memoize()
	}
	return plan, nil
}

// Close releases the stream's worker planner back to the pool without
// draining the remaining fragments. Abandoning a stream without Close
// leaks its worker from the free list. Idempotent; safe after exhaustion.
func (ps *PlanStream) Close() { ps.finish() }

// finish is the single completion point of every stream, Execute's
// included: it returns the worker to the pool exactly once, memoizes a
// successfully completed plan, and notifies the PlanObserver.
func (ps *PlanStream) finish() {
	if ps.done {
		return
	}
	ps.done = true
	if ps.worker != nil {
		ps.p.release(ps.worker)
		ps.worker = nil
	}
	ps.memoize()
	if plan := ps.cs.Plan(); !ps.obsStart.IsZero() && ps.err == nil && plan != nil {
		ps.p.observePlan(plan.Strategy, false, ps.obsStart)
		ps.obsStart = time.Time{}
	}
}

// memoize caches a successfully completed plan — except a Next-drained
// stream under WithVerify, whose plan has not been replayed yet: cached
// plans must be verified, so memoization waits for the Collect that
// performs the replay.
func (ps *PlanStream) memoize() {
	plan := ps.cs.Plan()
	if ps.p.cache == nil || !ps.hasKey || ps.err != nil || plan == nil || ps.p.opts.Verify && !ps.verified {
		return
	}
	ps.span.Begin(obs.PhaseCache)
	ps.p.cache.put(ps.ckey, ps.ckind, plan)
	ps.span.End()
}

// Err returns the stream's sticky planning error, if any — including the
// context error when the stream's ctx was cancelled mid-flight.
func (ps *PlanStream) Err() error { return ps.err }

// Cached reports whether the stream replays a fingerprint-cache hit rather
// than planning incrementally.
func (ps *PlanStream) Cached() bool { return ps.cached }

// Strategy reports the routing strategy of the streamed plan. Replays
// (cache hits, broadcasts, fault-repaired plans) read it off the finished
// plan; incremental streams report the plan under assembly's, once done.
func (ps *PlanStream) Strategy() string {
	if p := ps.cs.Plan(); p != nil {
		return p.Strategy
	}
	return StrategyTheoremTwo
}

// SlotCount returns the number of slots of the final schedule, known before
// any fragment is produced.
func (ps *PlanStream) SlotCount() int { return ps.cs.SlotCount() }

// FragmentCount returns how many fragments the stream will emit in total.
func (ps *PlanStream) FragmentCount() int { return ps.cs.FragmentCount() }
