package pops

import (
	"context"
	"errors"
	"fmt"
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
// and Factors.
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

// flattenRequests serializes reqs for fingerprinting and cache identity
// checks: src₀, dst₀, src₁, dst₁, …
func flattenRequests(reqs []Request) []int {
	flat := make([]int, 0, 2*len(reqs))
	for _, r := range reqs {
		flat = append(flat, r.Src, r.Dst)
	}
	return flat
}

// workloadKey resolves a workload to its cache key, kind tag, and flattened
// identity (the ident is what hits re-verify for equality).
func workloadKey(w Workload) (key uint64, kind uint8, ident []int) {
	switch w := w.(type) {
	case permutationWorkload:
		return perms.Fingerprint(w.pi), cacheKindPermutation, w.pi
	case hrelationWorkload:
		flat := flattenRequests(w.reqs)
		return perms.Fingerprint(flat) ^ workloadSalt[cacheKindHRelation], cacheKindHRelation, flat
	case allToAllWorkload:
		return perms.Fingerprint(nil) ^ workloadSalt[cacheKindAllToAll], cacheKindAllToAll, nil
	case oneToAllWorkload:
		ident = []int{w.speaker}
		return perms.Fingerprint(ident) ^ workloadSalt[cacheKindOneToAll], cacheKindOneToAll, ident
	case faultyWorkload:
		flat := faultyIdent(w.faults, w.pi)
		return perms.Fingerprint(flat) ^ workloadSalt[cacheKindFaulty], cacheKindFaulty, flat
	default:
		panic(fmt.Sprintf("pops: unknown workload type %T", w))
	}
}

// cacheIdentFor recovers a plan's flattened cache identity from the plan
// itself — plan-owned memory, safe to snapshot into the cache even when the
// caller has since reused its request or permutation buffers.
func cacheIdentFor(kind uint8, plan *Plan) []int {
	switch kind {
	case cacheKindPermutation:
		return plan.Pi
	case cacheKindHRelation:
		return flattenRequests(plan.Reqs)
	case cacheKindFaulty:
		// plan.Faults is already canonical (zero for delegated empty-fault
		// plans, which AppendIdent encodes as [0, 0] — matching the
		// workload's ident for an empty set).
		return faultyIdent(plan.Faults, plan.Pi)
	default:
		return nil
	}
}

// WorkloadFingerprint returns the 64-bit cache key of w: the content
// fingerprint of the workload (PermutationFingerprint for permutations, the
// request-list fingerprint for h-relations) mixed with the workload-kind
// tag. It is the key of the Planner's plan cache and the fingerprint the
// routing service reports for non-permutation workloads.
func WorkloadFingerprint(w Workload) uint64 {
	key, _, _ := workloadKey(w)
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
// ctx gates the work: an already-cancelled context returns ctx.Err()
// without acquiring a worker planner, and h-relation planning re-checks
// cancellation between König factors. The returned Plan owns its memory and
// stays valid across subsequent calls.
func (p *Planner) Execute(ctx context.Context, w Workload) (*Plan, error) {
	plan, _, err := p.ExecuteCached(ctx, w)
	return plan, err
}

// ExecuteCached is Execute plus cache attribution: cached reports whether
// the plan was answered from the fingerprint plan cache (always false
// without WithPlanCache). It is the primitive the serving layer uses, where
// hit/miss visibility is part of the response.
func (p *Planner) ExecuteCached(ctx context.Context, w Workload) (plan *Plan, cached bool, err error) {
	if w == nil {
		return nil, false, ErrNilWorkload
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	switch w := w.(type) {
	case permutationWorkload:
		return p.routePermutation(ctx, w.pi)
	case hrelationWorkload:
		return p.executeWorkload(ctx, w, func(pl *core.Planner) (*Plan, error) {
			return pl.PlanHRelation(ctx, w.reqs)
		})
	case allToAllWorkload:
		return p.executeWorkload(ctx, w, func(pl *core.Planner) (*Plan, error) {
			return pl.PlanHRelation(ctx, core.AllToAllRequests(p.nw.N()))
		})
	case faultyWorkload:
		return p.executeWorkload(ctx, w, func(pl *core.Planner) (*Plan, error) {
			return pl.PlanFaulty(ctx, w.pi, w.faults)
		})
	case oneToAllWorkload:
		// Broadcast planning is a single O(n) fan-out slot: cheaper than a
		// cache round-trip, so it is always planned fresh, with no worker.
		start := time.Now()
		plan, err := p.broadcastPlan(w.speaker)
		if err != nil {
			return nil, false, err
		}
		p.observePlan(plan.Strategy, false, start)
		return plan, false, nil
	default:
		return nil, false, fmt.Errorf("pops: unknown workload type %T", w)
	}
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

// routePermutation is the permutation fast path of ExecuteCached: unlike
// executeWorkload it needs no planning closure, so a fingerprint-cache hit
// stays allocation-free.
func (p *Planner) routePermutation(ctx context.Context, pi []int) (*Plan, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	start := time.Now()
	sp := obs.SpanFromContext(ctx)
	if p.cache != nil {
		sp.Begin(obs.PhaseCache)
		plan, ok := p.cache.get(perms.Fingerprint(pi), cacheKindPermutation, pi)
		sp.End()
		if ok {
			p.observePlan(plan.Strategy, true, start)
			return plan, true, nil
		}
	}
	pl := p.acquire()
	defer p.release(pl)
	plan, err := pl.PlanCtx(ctx, pi)
	if err != nil {
		return nil, false, err
	}
	if p.cache != nil {
		sp.Begin(obs.PhaseCache)
		p.cache.put(perms.Fingerprint(pi), cacheKindPermutation, pi, plan)
		sp.End()
	}
	p.observePlan(plan.Strategy, false, start)
	return plan, false, nil
}

// executeWorkload is the shared cache-then-plan path: a verified cache hit
// skips planning entirely; a miss checks a worker planner out of the pool,
// plans, memoizes, and returns the worker.
func (p *Planner) executeWorkload(ctx context.Context, w Workload, plan func(*core.Planner) (*Plan, error)) (*Plan, bool, error) {
	start := time.Now()
	sp := obs.SpanFromContext(ctx)
	var key uint64
	var kind uint8
	if p.cache != nil {
		var ident []int
		key, kind, ident = workloadKey(w)
		sp.Begin(obs.PhaseCache)
		hit, ok := p.cache.get(key, kind, ident)
		sp.End()
		if ok {
			p.observePlan(hit.Strategy, true, start)
			return hit, true, nil
		}
	}
	pl := p.acquire()
	defer p.release(pl)
	built, err := plan(pl)
	if err != nil {
		return nil, false, err
	}
	if p.cache != nil {
		sp.Begin(obs.PhaseCache)
		p.cache.put(key, kind, cacheIdentFor(kind, built), built)
		sp.End()
	}
	p.observePlan(built.Strategy, false, start)
	return built, false, nil
}

// ExecuteStream begins streaming the plan of workload w: the returned
// PlanStream delivers the schedule as slot fragments while planning is
// still in progress. For Permutation workloads fragments are per relay
// color class; for HRelation and AllToAll workloads each fragment is one
// whole schedule slot, emitted as soon as its König factor has been peeled
// from the request-graph factorization and routed — the first slots are
// ready long before the factorization behind a batch Execute completes.
// OneToAll streams its single slot. With WithPlanCache, a memoized workload
// short-circuits to a materialized stream that replays whole slots and holds
// no worker planner.
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
	if ow, ok := w.(oneToAllWorkload); ok {
		plan, err := p.broadcastPlan(ow.speaker)
		if err != nil {
			return nil, err
		}
		p.observePlan(plan.Strategy, false, start)
		return &PlanStream{p: p, plan: plan, nocache: true, total: plan.SlotCount()}, nil
	}
	if fw, ok := w.(faultyWorkload); ok {
		// Fault repair is whole-plan (Kempe flips are global), so the stream
		// materializes the finished plan and replays whole slots — the same
		// shape a fingerprint-cache hit streams. ExecuteCached already
		// memoized the plan, hence nocache.
		plan, cached, err := p.ExecuteCached(ctx, Workload(fw))
		if err != nil {
			return nil, err
		}
		return &PlanStream{p: p, plan: plan, cached: cached, nocache: true, total: plan.SlotCount()}, nil
	}

	sp := obs.SpanFromContext(ctx)
	var key uint64
	var kind uint8
	hasKey := p.cache != nil
	if hasKey {
		var ident []int
		key, kind, ident = workloadKey(w)
		sp.Begin(obs.PhaseCache)
		plan, ok := p.cache.get(key, kind, ident)
		sp.End()
		if ok {
			p.observePlan(plan.Strategy, true, start)
			return &PlanStream{p: p, plan: plan, cached: true, ckey: key, ckind: kind, hasKey: true, total: plan.SlotCount()}, nil
		}
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
		err = fmt.Errorf("pops: unknown workload type %T", w)
	}
	if err != nil {
		p.release(worker)
		return nil, err
	}
	return &PlanStream{p: p, worker: worker, cs: cs, ckey: key, ckind: kind, hasKey: hasKey, total: cs.FragmentCount(), span: sp, obsStart: start}, nil
}
