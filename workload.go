package pops

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"pops/internal/core"
	"pops/internal/obs"
	"pops/internal/perms"
)

// Workload kind tags, as reported by Workload.Kind and spoken on the wire
// (the "workload" field of the routing service's requests).
const (
	WorkloadPermutation       = "permutation"
	WorkloadHRelation         = "hrelation"
	WorkloadAllToAll          = "all-to-all"
	WorkloadOneToAll          = "one-to-all"
	WorkloadFaultyPermutation = "faulty-permutation"
)

// Workload is one routing problem on a POPS(d, g) network: the paper's
// Theorem 2 permutation, its h-relation generalization, the complete
// exchange, the one-slot broadcast, or a permutation routed around dead
// hardware. Workloads are built with the Permutation, HRelation, AllToAll,
// OneToAll and FaultyPermutation constructors and executed —
// batch or streaming — by the one pair of Planner methods:
//
//	plan, err := planner.Execute(ctx, pops.Permutation(pi))
//	stream, err := planner.ExecuteStream(ctx, pops.HRelation(reqs))
//
// Every workload kind inherits the Planner's pooled worker arenas, its
// fingerprint plan cache (keyed by the workload-kind tag mixed into the
// content fingerprint), and — over the wire — the service's sharding and
// slot streaming. The interface is sealed: the five constructors enumerate
// the supported kinds.
type Workload interface {
	// Kind returns the workload's tag (WorkloadPermutation, ...).
	Kind() string
	sealed()
}

type permutationWorkload struct{ pi []int }

func (permutationWorkload) Kind() string { return WorkloadPermutation }
func (permutationWorkload) sealed()      {}

type hrelationWorkload struct{ reqs []Request }

func (hrelationWorkload) Kind() string { return WorkloadHRelation }
func (hrelationWorkload) sealed()      {}

type allToAllWorkload struct{}

func (allToAllWorkload) Kind() string { return WorkloadAllToAll }
func (allToAllWorkload) sealed()      {}

type oneToAllWorkload struct{ speaker int }

func (oneToAllWorkload) Kind() string { return WorkloadOneToAll }
func (oneToAllWorkload) sealed()      {}

// Permutation is the Theorem 2 workload: route permutation pi in exactly
// OptimalSlots(d, g) slots. The resulting Plan fills Pi, Colors and Rounds.
func Permutation(pi []int) Workload { return permutationWorkload{pi: pi} }

// HRelation is the h-relation workload: deliver every request of reqs,
// where each processor appears at most h times as a source and at most h
// times as a destination, in h · OptimalSlots(d, g) slots (König
// decomposition into h Theorem 2 rounds). The resulting Plan fills Reqs, H
// and Factors. The workload shares reqs, as Permutation shares pi; the plan
// keeps a copy of its own.
func HRelation(reqs []Request) Workload { return hrelationWorkload{reqs: reqs} }

// AllToAll is the complete-exchange workload: every processor sends one
// distinct packet to every other processor, an (n−1)-relation routed like
// HRelation. The request list is deterministic (request k·n + s moves the
// packet from processor s to (s+k+1) mod n), so the workload is fully
// determined by the planner's shape — repeated executions hit the plan cache
// without rebuilding the n·(n−1) requests.
func AllToAll() Workload { return allToAllWorkload{} }

// OneToAll is the broadcast workload: the paper's one-slot schedule
// delivering the speaker's packet to every processor. The resulting Plan
// records the Speaker.
func OneToAll(speaker int) Workload { return oneToAllWorkload{speaker: speaker} }

// Cache key kinds. The key mixes a per-kind salt into the content
// fingerprint so equal content under different kinds cannot alias, and
// every hit still re-verifies kind and identity.
const (
	cacheKindPermutation uint8 = iota
	cacheKindHRelation
	cacheKindAllToAll
	cacheKindOneToAll
	cacheKindFaulty
)

// workloadSalt[kind] is XORed into the content fingerprint. Permutations
// keep a zero salt, so PermutationFingerprint remains the exact cache key
// of permutation plans.
var workloadSalt = [...]uint64{
	cacheKindPermutation: 0,
	cacheKindHRelation:   0x9e3779b97f4a7c15,
	cacheKindAllToAll:    0xc2b2ae3d27d4eb4f,
	cacheKindOneToAll:    0x165667b19e3779f9,
	cacheKindFaulty:      0x27d4eb2f165667c5,
}

// requestsFingerprint is perms.Fingerprint of the flattened pairs src₀,
// dst₀, src₁, dst₁, …, hashed over the pairs in place.
func requestsFingerprint(reqs []Request) uint64 {
	h := perms.NewHasher(2 * len(reqs))
	for _, r := range reqs {
		h = h.Add(r.Src).Add(r.Dst)
	}
	return h.Sum()
}

// workloadKey resolves a workload to its cache key and kind tag. It
// flattens nothing but a fault set: an h-relation is hashed in place.
func workloadKey(w Workload) (key uint64, kind uint8) {
	switch w := w.(type) {
	case permutationWorkload:
		return perms.Fingerprint(w.pi), cacheKindPermutation
	case hrelationWorkload:
		return requestsFingerprint(w.reqs) ^ workloadSalt[cacheKindHRelation], cacheKindHRelation
	case allToAllWorkload:
		return perms.Fingerprint(nil) ^ workloadSalt[cacheKindAllToAll], cacheKindAllToAll
	case oneToAllWorkload:
		return perms.Fingerprint([]int{w.speaker}) ^ workloadSalt[cacheKindOneToAll], cacheKindOneToAll
	case faultyWorkload:
		return perms.Fingerprint(faultyIdent(w.faults, w.pi)) ^ workloadSalt[cacheKindFaulty], cacheKindFaulty
	default:
		panic("pops: unknown workload type")
	}
}

// planAnswers reports whether plan was made for workload w — what a cache
// hit re-verifies after its key matched — comparing in place, unflattened.
func planAnswers(plan *Plan, w Workload) bool {
	switch w := w.(type) {
	case permutationWorkload:
		return perms.Equal(w.pi, plan.Pi)
	case hrelationWorkload:
		return slices.Equal(w.reqs, plan.Reqs)
	case allToAllWorkload:
		return true
	case faultyWorkload:
		// plan.Faults is canonical: zero for delegated empty-fault plans.
		return perms.Equal(w.pi, plan.Pi) && slices.Equal(w.faults.Couplers, plan.Faults.Couplers) &&
			slices.Equal(w.faults.Groups, plan.Faults.Groups)
	default:
		return false
	}
}

// WorkloadFingerprint returns the 64-bit cache key of w: the content
// fingerprint of the workload (PermutationFingerprint for permutations, the
// request-list fingerprint for h-relations) mixed with the workload-kind
// tag. It is the key of the Planner's plan cache and the fingerprint the
// routing service reports for non-permutation workloads.
func WorkloadFingerprint(w Workload) uint64 {
	key, _ := workloadKey(w)
	return key
}

// ErrNilWorkload is returned by Execute and ExecuteStream for a nil
// workload.
var ErrNilWorkload = errors.New("pops: nil workload")

// Execute plans workload w, reusing the planner's pooled worker arenas.
// Permutation workloads produce the Theorem 2 plan, HRelation and AllToAll
// workloads the König-decomposed h-relation plan, and OneToAll the one-slot
// broadcast. With WithPlanCache, recurring workloads of any kind are
// answered from the fingerprint plan cache.
//
// Execute is ExecuteStream drained by Collect, so ctx gates the work the
// same way: an already-cancelled context returns ctx.Err() without
// acquiring a worker planner, and planning re-checks cancellation between
// factors (color classes of a permutation, König factors of an h-relation).
// A cancelled plan is not memoized. The returned Plan owns its memory and
// stays valid across subsequent calls.
func (p *Planner) Execute(ctx context.Context, w Workload) (*Plan, error) {
	plan, _, err := p.ExecuteCached(ctx, w)
	return plan, err
}

// ExecuteCached is Execute plus cache attribution: cached reports whether
// the plan was answered from the fingerprint plan cache (always false
// without WithPlanCache). It is the primitive the serving layer uses, where
// hit/miss visibility is part of the response. A miss is ExecuteStream's
// miss path drained by Collect, so batch and streamed plans come from one
// construction and memoize in one place.
func (p *Planner) ExecuteCached(ctx context.Context, w Workload) (plan *Plan, cached bool, err error) {
	if w == nil {
		return nil, false, ErrNilWorkload
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	start := time.Now()
	key, kind, hit := p.lookup(ctx, w, start)
	if hit != nil {
		return hit, true, nil
	}
	ps, err := p.startMiss(ctx, w, key, kind, start)
	if err != nil {
		return nil, false, err
	}
	plan, err = ps.Collect()
	return plan, false, err
}

// broadcastPlan builds the one-to-all plan, honoring WithVerify like every
// other workload kind.
func (p *Planner) broadcastPlan(speaker int) (*Plan, error) {
	plan, err := core.BroadcastPlan(p.nw, speaker)
	if err != nil {
		return nil, err
	}
	if p.opts.Verify {
		if _, err := plan.Verify(); err != nil {
			return nil, fmt.Errorf("pops: broadcast schedule failed verification: %w", err)
		}
	}
	return plan, nil
}

// ExecuteStream begins streaming the plan of workload w: the returned
// PlanStream delivers the schedule as slot fragments while planning is
// still in progress. For Permutation workloads fragments are per relay
// color class; for HRelation and AllToAll workloads each fragment is one
// whole schedule slot, emitted as soon as its König factor has been peeled
// from the request-graph factorization and routed — the first slots are
// ready long before the whole factorization completes. OneToAll streams its
// single slot. With WithPlanCache, a memoized workload short-circuits to a
// replay of whole slots that holds no worker planner.
//
// ctx gates the stream: an already-cancelled context returns ctx.Err()
// without acquiring a worker, and cancelling it mid-stream stops factor
// production at the next Next call — the stream fails with ctx.Err() and
// its worker planner returns to the pool (see PlanStream for the ownership
// contract; Close remains safe and idempotent).
func (p *Planner) ExecuteStream(ctx context.Context, w Workload) (*PlanStream, error) {
	if w == nil {
		return nil, ErrNilWorkload
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	key, kind, hit := p.lookup(ctx, w, start)
	if hit != nil {
		return &PlanStream{p: p, cs: core.Replay(hit), cached: true, verified: true}, nil
	}
	return p.startMiss(ctx, w, key, kind, start)
}

// lookup consults the fingerprint plan cache for w, returning w's cache key
// and kind alongside a verified hit (nil on a miss). A hit is observed here;
// a miss is observed when its stream finishes. Broadcasts bypass the cache:
// a one-to-all plan is a single O(n) fan-out slot, cheaper than a cache
// round-trip.
func (p *Planner) lookup(ctx context.Context, w Workload, start time.Time) (key uint64, kind uint8, hit *Plan) {
	if p.cache == nil {
		return 0, 0, nil
	}
	if _, ok := w.(oneToAllWorkload); ok {
		return 0, 0, nil
	}
	key, kind = workloadKey(w)
	sp := obs.SpanFromContext(ctx)
	sp.Begin(obs.PhaseCache)
	hit, ok := p.cache.get(key, kind, w)
	sp.End()
	if ok {
		p.observePlan(hit.Strategy, true, start)
	}
	return key, kind, hit
}

// startMiss plans a workload the cache did not answer, as a stream that
// memoizes its finished plan under (key, kind). Permutations and h-relations
// stream incrementally from a checked-out worker planner. Broadcasts and
// fault plans are built whole up front — fault repair is whole-plan (Kempe
// flips are global) — and replay whole slots like a cache hit; broadcasts
// are never memoized.
func (p *Planner) startMiss(ctx context.Context, w Workload, key uint64, kind uint8, start time.Time) (*PlanStream, error) {
	ps := &PlanStream{p: p, ckey: key, ckind: kind, hasKey: p.cache != nil, span: obs.SpanFromContext(ctx), obsStart: start}
	switch w := w.(type) {
	case oneToAllWorkload:
		plan, err := p.broadcastPlan(w.speaker)
		if err != nil {
			return nil, err
		}
		ps.cs, ps.verified, ps.hasKey = core.Replay(plan), true, false
		return ps, nil
	case faultyWorkload:
		worker := p.acquire()
		plan, err := worker.PlanFaulty(ctx, w.pi, w.faults)
		p.release(worker)
		if err != nil {
			return nil, err
		}
		// PlanFaulty already replayed the schedule under WithVerify.
		ps.cs, ps.verified = core.Replay(plan), true
		return ps, nil
	}
	worker := p.acquire()
	var cs coreStream
	var err error
	switch w := w.(type) {
	case permutationWorkload:
		cs, err = worker.StartPlanCtx(ctx, w.pi)
	case hrelationWorkload:
		cs, err = worker.StartHRelation(ctx, w.reqs)
	case allToAllWorkload:
		cs, err = worker.StartHRelation(ctx, core.AllToAllRequests(p.nw.N()))
	default:
		err = errors.New("pops: unknown workload type")
	}
	if err != nil {
		p.release(worker)
		return nil, err
	}
	ps.worker, ps.cs = worker, cs
	return ps, nil
}
