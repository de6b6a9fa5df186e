package pops

import (
	"errors"
	"fmt"
	"time"

	"pops/internal/core"
	"pops/internal/obs"
)

// StreamedSlot is one increment of a streaming plan: the fragment of one
// schedule slot contributed by a single relay color class, one whole slot
// of an h-relation factor, or a whole slot replayed from the fingerprint
// cache. See ExecuteStream.
type StreamedSlot = core.StreamedSlot

// coreStream is the incremental planner behind a PlanStream: the Theorem 2
// per-color-class stream (core.PlanStream) or the per-factor h-relation
// stream (core.HRelationStream). Both deliver StreamedSlots and assemble
// the identical *Plan their batch counterparts produce.
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
// Planner — and concurrent Route/RouteBatch calls — are independent.
type PlanStream struct {
	p      *Planner
	worker *core.Planner
	cs     coreStream

	// Cache-hit replay state: the memoized plan is emitted as one
	// whole-slot fragment per schedule slot, no worker needed.
	plan      *Plan
	cached    bool
	replayIdx int

	// Memoization key (valid when hasKey): the workload cache key and kind.
	// nocache marks streams that are never memoized (one-to-all replay).
	ckey    uint64
	ckind   uint8
	hasKey  bool
	nocache bool

	collected bool // Collect ran (and, with WithVerify, the replay passed)
	err       error
	done      bool
	total     int

	// Plan-time observation state of incremental streams: the span carried
	// by the ExecuteStream ctx and the stream's start time. obsStart is
	// non-zero only for streams that still owe a PlanObserver notification
	// (materialized streams — cache hits, broadcasts, fault plans — were
	// observed at ExecuteStream time).
	span     *obs.Span
	obsStart time.Time
}

// Next emits the next slot fragment; ok is false once the stream is
// exhausted (the assembled plan is then available from Collect) or has
// failed (see Err). Fragments alias the final plan's schedule storage and
// must not be modified. Fragment granularity is one color class per
// fragment for permutation workloads, one whole slot for h-relation
// workloads and cache-hit replays; either way the fragments of one slot
// tile it exactly, and Final marks each slot's last fragment.
func (ps *PlanStream) Next() (StreamedSlot, bool) {
	if ps.done || ps.err != nil {
		return StreamedSlot{}, false
	}
	if ps.cs == nil {
		slots := ps.plan.Schedule().Slots
		if ps.replayIdx >= len(slots) {
			ps.finish()
			return StreamedSlot{}, false
		}
		i := ps.replayIdx
		ps.replayIdx++
		slot := &slots[i]
		return StreamedSlot{Slot: i, Color: -1, Final: true, Sends: slot.Sends, Recvs: slot.Recvs}, true
	}
	frag, ok := ps.cs.Next()
	if !ok {
		ps.err = ps.cs.Err()
		ps.plan = ps.cs.Plan()
		ps.finish()
		return StreamedSlot{}, false
	}
	return frag, true
}

// Collect drains the remaining fragments and returns the finished plan,
// byte identical to Execute's result for the same workload (golden-pinned
// by the package tests). Like Execute, a collected plan is memoized in the
// fingerprint cache. With WithVerify the completed schedule is replayed on
// the simulator first. Collect on a Closed (abandoned) stream returns an
// error: its worker planner is already back in the pool.
func (ps *PlanStream) Collect() (*Plan, error) {
	if ps.done {
		// Exhausted (plan ready), failed (sticky error), or abandoned via
		// Close — never touch the released worker again. A Next-drained
		// plan still owes its WithVerify replay and memoization: both need
		// only the finished plan, not the worker.
		if ps.err != nil {
			return nil, ps.err
		}
		if ps.plan == nil {
			return nil, errors.New("pops: plan stream closed before completion")
		}
		if ps.p.opts.Verify && !ps.collected && !ps.cached {
			ps.span.Begin(obs.PhaseVerify)
			if _, err := ps.plan.Verify(); err != nil {
				ps.err = fmt.Errorf("pops: schedule failed verification: %w", err)
				return nil, ps.err
			}
			ps.span.End()
			ps.collected = true
			ps.memoize()
		}
		return ps.plan, nil
	}
	if ps.cs == nil {
		// Cache hit (or broadcast): the plan is already materialized (and
		// was verified by whichever call originally planned it).
		ps.replayIdx = ps.plan.SlotCount()
		ps.finish()
		return ps.plan, nil
	}
	plan, err := ps.cs.Collect()
	if err != nil {
		ps.err = err
	} else {
		ps.collected = true
	}
	ps.plan = plan
	ps.finish()
	return plan, err
}

// Close releases the stream's worker planner back to the pool without
// draining the remaining fragments. Abandoning a stream without Close
// leaks its worker from the free list. Idempotent; safe after exhaustion.
func (ps *PlanStream) Close() { ps.finish() }

// finish is the single release point: it returns the worker to the pool
// exactly once and memoizes a successfully completed plan.
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
	if !ps.obsStart.IsZero() && ps.err == nil && ps.plan != nil {
		ps.p.observePlan(ps.plan.Strategy, false, ps.obsStart)
		ps.obsStart = time.Time{}
	}
}

// memoize caches a successfully completed plan like Execute would — except
// a Next-drained stream under WithVerify, whose plan has not been replayed
// yet: cached plans must be as trustworthy as Execute's, so memoization
// waits for the Collect that performs the replay.
func (ps *PlanStream) memoize() {
	if ps.p.cache == nil || !ps.hasKey || ps.nocache || ps.cached {
		return
	}
	verifiedEnough := !ps.p.opts.Verify || ps.collected
	if ps.err == nil && ps.plan != nil && verifiedEnough {
		ps.p.cache.put(ps.ckey, ps.ckind, cacheIdentFor(ps.ckind, ps.plan), ps.plan)
	}
}

// Err returns the stream's sticky planning error, if any — including the
// context error when the stream's ctx was cancelled mid-flight.
func (ps *PlanStream) Err() error { return ps.err }

// Cached reports whether the stream replays a fingerprint-cache hit rather
// than planning incrementally.
func (ps *PlanStream) Cached() bool { return ps.cached }

// Strategy reports the routing strategy of the streamed plan. Materialized
// streams (cache hits, broadcasts, fault-repaired plans) read it off the
// finished plan; incremental streams read it off the plan under assembly.
func (ps *PlanStream) Strategy() string {
	if ps.plan != nil {
		return ps.plan.Strategy
	}
	if ps.cs != nil {
		if p := ps.cs.Plan(); p != nil {
			return p.Strategy
		}
	}
	return StrategyTheoremTwo
}

// SlotCount returns the number of slots of the final schedule, known before
// any fragment is produced.
func (ps *PlanStream) SlotCount() int {
	if ps.cs != nil {
		return ps.cs.SlotCount()
	}
	return ps.plan.SlotCount()
}

// FragmentCount returns how many fragments the stream will emit in total.
func (ps *PlanStream) FragmentCount() int { return ps.total }
