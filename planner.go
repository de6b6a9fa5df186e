package pops

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pops/internal/core"
)

// Planner is the entry point for planning workloads on one POPS(d, g)
// network: the network shape is validated once, and the internal
// demand-graph, coloring-arena and invariant-check buffers of the planners
// are recycled across calls instead of reallocated per workload. It is what
// a routing service should hold per network shape. Workloads — permutations,
// h-relations, the complete exchange, broadcasts — are executed by the one
// pair of context-aware methods Execute and ExecuteStream.
//
// A Planner is safe for concurrent use: it keeps a free list of per-worker
// core planners (bounded by WithParallelism), so concurrent Execute calls
// and RouteBatch workers never share scratch memory.
//
// With WithPlanCache(n), the planner additionally memoizes up to n plans
// keyed by the workload fingerprint (WorkloadFingerprint — for permutations
// exactly PermutationFingerprint): recurring workloads (BPC families, mesh
// shifts, the all-to-all exchange) are answered from the cache instead of
// replanned. Hits return the same *Plan pointer to every caller, so plans
// must be treated as immutable — which Plan's read-only method set already
// assumes.
type Planner struct {
	nw    Network
	opts  Options
	par   int
	free  chan *core.Planner
	cache *planCache // nil without WithPlanCache
}

// NewPlanner validates the POPS(d, g) shape once and returns a Planner for
// it. WithParallelism bounds the worker pool of RouteBatch and the size of
// the internal buffer free list; the default is GOMAXPROCS.
func NewPlanner(d, g int, opts ...Option) (*Planner, error) {
	nw, err := NewNetwork(d, g)
	if err != nil {
		return nil, err
	}
	o := NewOptions(opts...)
	par := o.Workers()
	p := &Planner{nw: nw, opts: o, par: par, free: make(chan *core.Planner, par)}
	if o.PlanCache > 0 {
		p.cache = newPlanCache(o.PlanCache)
	}
	return p, nil
}

// Network returns the planner's POPS(d, g) shape.
func (p *Planner) Network() Network { return p.nw }

func (p *Planner) acquire() *core.Planner {
	select {
	case pl := <-p.free:
		return pl
	default:
		return core.NewPlannerFor(p.nw, p.opts)
	}
}

func (p *Planner) release(pl *core.Planner) {
	select {
	case p.free <- pl:
	default: // free list full; let the extra planner be collected
	}
}

// observePlan notifies the installed PlanObserver, if any, of one completed
// plan. start is when the caller began the route (before the cache lookup),
// so cached observations measure the hit path, not planning.
func (p *Planner) observePlan(strategy string, cached bool, start time.Time) {
	if o := p.opts.Observer; o != nil {
		o.ObservePlan(strategy, cached, time.Since(start))
	}
}

// CacheStats returns a snapshot of the fingerprint plan cache counters. The
// zero CacheStats is returned when the planner was built without
// WithPlanCache.
func (p *Planner) CacheStats() CacheStats {
	if p.cache == nil {
		return CacheStats{}
	}
	return p.cache.snapshot()
}

// BatchError records the failure of one permutation within a RouteBatch
// call. The joined error RouteBatch returns is built from one BatchError per
// failing index; callers needing per-index attribution unwrap the join
// (errors.Join's Unwrap() []error) and errors.As each element.
type BatchError struct {
	Index int   // position of the failing permutation in the batch
	Err   error // the underlying planning error
}

// Error implements error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("pops: batch permutation %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying planning error to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// RouteBatch runs Execute(Permutation(pi)) for every permutation of pis,
// fanned out over at most WithParallelism goroutines, and returns the plans
// in input order. The fan-out does not change the construction: results are
// identical to calling Execute sequentially on each permutation.
//
// All entries are planned even when some fail. Successful plans are always
// returned at their indices; a failing permutation leaves a nil plan at its
// index, and the returned error is the errors.Join of one *BatchError per
// failing index (nil when every permutation planned). With WithPlanCache,
// each permutation is first looked up in the fingerprint cache.
func (p *Planner) RouteBatch(pis [][]int) ([]*Plan, error) {
	plans, _, err := p.RouteBatchContexts(nil, pis)
	return plans, err
}

// RouteBatchContexts is RouteBatch with per-index cache attribution —
// cached[i] reports whether plans[i] was answered from the fingerprint plan
// cache (always false without WithPlanCache) — and one context per entry, so a
// batch assembled from independent requests (the serving layer's micro-batch
// queue) keeps per-request cancellation and trace-span attribution: entry
// i's cache lookup and planning phases are recorded on ctxs[i]'s span.
// ctxs may be nil (every entry runs under context.Background()) or must
// match pis in length; individual nil entries also fall back to Background.
func (p *Planner) RouteBatchContexts(ctxs []context.Context, pis [][]int) (plans []*Plan, cached []bool, err error) {
	if ctxs != nil && len(ctxs) != len(pis) {
		return nil, nil, fmt.Errorf("pops: %d contexts for %d permutations", len(ctxs), len(pis))
	}
	plans = make([]*Plan, len(pis))
	cached = make([]bool, len(pis))
	errs := make([]error, len(pis))
	route := func(i int) {
		ctx := context.Background()
		if ctxs != nil && ctxs[i] != nil {
			ctx = ctxs[i]
		}
		var planErr error
		plans[i], cached[i], planErr = p.ExecuteCached(ctx, Permutation(pis[i]))
		if planErr != nil {
			errs[i] = &BatchError{Index: i, Err: planErr}
		}
	}
	// The caller's goroutine is one of the min(par, n) workers, so a
	// single-worker batch spawns nothing. Each ExecuteCached checks its own
	// worker planner out of the free list: workers share only the counter.
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(pis); i = int(next.Add(1) - 1) {
			route(i)
		}
	}
	var wg sync.WaitGroup
	for range min(p.par, len(pis)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return plans, cached, errors.Join(errs...)
}
