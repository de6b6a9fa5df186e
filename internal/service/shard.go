package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pops"
	"pops/internal/obs"
	"pops/internal/perms"
	"pops/internal/wire"
)

// errShardRetired is returned by admit when the shard was evicted between
// the registry lookup and admission; callers re-resolve the shard and retry.
var errShardRetired = errors.New("service: shard retired")

// Result is the outcome of one admitted permutation: a plan or a per-entry
// planning error, plus whether the plan came from the fingerprint cache.
type Result struct {
	Plan   *pops.Plan
	Cached bool
	Err    error
}

// request is one queued routing demand awaiting a micro-batch flush. sp is
// the admitting request's trace span (nil when untraced) and at its admission
// time, so the flush can attribute the queue wait to the span's queue phase.
// ctx is the admitting request's context: a queued entry whose deadline has
// already passed when its flush starts is shed before it reaches a planner
// worker, and tenant is the admission tenant the entry was charged to.
type request struct {
	ctx    context.Context
	pi     []int
	tenant string
	done   chan Result // buffered (cap 1) so flush never blocks on a reader
	sp     *obs.Span
	at     time.Time
}

// tenantBucket is one tenant's token bucket on one shard: tokens are debited
// at admission while the queue is contended and credited back in proportion
// to the tenant's weight as the queue drains, so refill is coupled to the
// shard's actual service rate — no separate rate configuration to drift out
// of sync with planner speed.
type tenantBucket struct {
	weight float64
	tokens float64
}

// planTimeAdapter feeds the planner's PlanObserver callbacks into the
// service-wide per-(d, g, strategy) plan-time table.
type planTimeAdapter struct {
	pt   *obs.PlanTimes
	d, g int
}

func (a planTimeAdapter) ObservePlan(strategy string, cached bool, d time.Duration) {
	a.pt.Observe(a.d, a.g, strategy, cached, d)
}

// observerChain fans one planner observation out to several observers, so a
// caller-supplied WithPlanObserver in Config.PlannerOptions composes with
// the service's plan-time table instead of being overridden by it.
type observerChain []pops.PlanObserver

func (c observerChain) ObservePlan(strategy string, cached bool, d time.Duration) {
	for _, o := range c {
		o.ObservePlan(strategy, cached, d)
	}
}

// shard serves one POPS(d, g) shape: a pops.Planner with a fingerprint plan
// cache, fed by an admission queue that coalesces concurrent permutation
// requests into micro-batches for RouteBatch. Non-permutation workloads take
// the direct path (execute) and slot streams their own (admitStream).
type shard struct {
	key shapeKey
	svc *Service

	planner *pops.Planner

	// mu orders admissions against close: admitters hold the read lock
	// across the closed check and the queue send, so once close acquires
	// the write lock and flips closed, no further send can race the
	// close(reqs) that follows.
	mu     sync.RWMutex
	closed bool
	reqs   chan request
	done   chan struct{} // closed when loop has drained and exited

	// buckets holds the per-tenant admission quotas (TenantMix): while the
	// queue is contended, each admission debits the tenant's bucket and each
	// flushed entry credits every bucket by its weight share.
	tenantMu sync.Mutex
	buckets  map[string]*tenantBucket

	requests atomic.Uint64
	streams  atomic.Uint64
	batches  atomic.Uint64
	batched  atomic.Uint64
	maxBatch atomic.Uint64

	// sheds counts overload rejections at this shard's bounds (queue,
	// tenant quota, stream cap, direct cap); deadlineSheds the queued
	// entries dropped at flush because their deadline had already passed.
	sheds         atomic.Uint64
	deadlineSheds atomic.Uint64
	// activeStreams/directActive hold the live occupancy against MaxStreams
	// and MaxDirect.
	activeStreams atomic.Int64
	directActive  atomic.Int64
}

func newShard(s *Service, d, g int) (*shard, error) {
	opts := append([]pops.Option(nil), s.cfg.PlannerOptions...)
	if s.cfg.CacheSize > 0 {
		opts = append(opts, pops.WithPlanCache(s.cfg.CacheSize))
	}
	var observer pops.PlanObserver = planTimeAdapter{pt: s.tracer.Plan, d: d, g: g}
	if user := pops.NewOptions(s.cfg.PlannerOptions...).Observer; user != nil {
		observer = observerChain{user, observer.(planTimeAdapter)}
	}
	opts = append(opts, pops.WithPlanObserver(observer))
	planner, err := pops.NewPlanner(d, g, opts...)
	if err != nil {
		return nil, err
	}
	return &shard{
		key:     shapeKey{d, g},
		svc:     s,
		planner: planner,
		reqs:    make(chan request, s.cfg.QueueDepth),
		done:    make(chan struct{}),
		buckets: make(map[string]*tenantBucket),
	}, nil
}

// route admits pi and waits for its result, abandoning the wait when ctx is
// cancelled (the admitted entry still completes within its micro-batch).
func (sh *shard) route(ctx context.Context, pi []int) (Result, error) {
	ch, err := sh.admit(ctx, pi)
	if err != nil {
		return Result{}, err
	}
	select {
	case res := <-ch:
		// An entry shed at flush because its own context expired is a
		// request-level outcome (the caller's deadline, not a planning
		// failure), normalized here so both select arms agree.
		if res.Err != nil && ctx.Err() != nil && errors.Is(res.Err, ctx.Err()) {
			return Result{}, res.Err
		}
		return res, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// execute runs a non-permutation workload directly on the shard's planner,
// bypassing the micro-batching queue: the planner's own worker pool and
// plan cache provide the amortization for these kinds.
func (sh *shard) execute(ctx context.Context, w pops.Workload) (Result, error) {
	tenant := pops.TenantFromContext(ctx)
	sh.mu.RLock()
	if sh.closed {
		sh.mu.RUnlock()
		return Result{}, errShardRetired
	}
	if !acquireSlot(&sh.directActive, sh.svc.cfg.MaxDirect) {
		sh.mu.RUnlock()
		return Result{}, sh.shed(tenant, "direct")
	}
	sh.requests.Add(1)
	sh.svc.tenant(tenant).admitted.Add(1)
	sh.mu.RUnlock()
	defer sh.directActive.Add(-1)
	plan, cached, err := sh.planner.ExecuteCached(ctx, w)
	if err != nil {
		// Context errors are request-level: the caller went away, nothing
		// was planned. Workload errors (bad requests, bad speaker) stay
		// per-entry like planning failures of the batch path.
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		return Result{Err: err}, nil
	}
	return Result{Plan: plan, Cached: cached}, nil
}

// admit enqueues pi on the micro-batching queue, returning the channel its
// Result will arrive on. The returned error is request-level: a retired
// shard or an overload verdict — never a planning failure. The queue send
// never blocks: a full queue (or an exhausted tenant quota while the queue
// is contended) sheds the request immediately with a typed
// *pops.OverloadError, so callers learn to back off in admission time
// rather than queueing time. ctx's trace span (if any) rides along, and the
// flush charges the queue wait to its queue phase.
func (sh *shard) admit(ctx context.Context, pi []int) (chan Result, error) {
	ch := make(chan Result, 1)
	sp := obs.SpanFromContext(ctx)
	tenant := pops.TenantFromContext(ctx)
	if err := ctx.Err(); err != nil {
		// The caller is already gone (deadline passed or hung up); refuse
		// the queue slot rather than planning for nobody.
		return nil, err
	}
	sh.mu.RLock()
	if sh.closed {
		sh.mu.RUnlock()
		return nil, errShardRetired
	}
	debited, ok := sh.tenantAdmit(tenant)
	if !ok {
		sh.mu.RUnlock()
		return nil, sh.shed(tenant, "admission")
	}
	select {
	case sh.reqs <- request{ctx: ctx, pi: pi, tenant: tenant, done: ch, sp: sp, at: time.Now()}:
		sh.requests.Add(1)
		sh.svc.tenant(tenant).admitted.Add(1)
		sh.mu.RUnlock()
		return ch, nil
	default:
		sh.mu.RUnlock()
		if debited {
			sh.refundTenant(tenant)
		}
		return nil, sh.shed(tenant, "admission")
	}
}

// acquireSlot claims one slot of a capped occupancy counter — a shard's
// directActive against MaxDirect, or its activeStreams against MaxStreams —
// reporting false when limit > 0 and every slot is taken. The holder
// releases its slot with n.Add(-1).
func acquireSlot(n *atomic.Int64, limit int) bool {
	if v := n.Add(1); limit > 0 && v > int64(limit) {
		n.Add(-1)
		return false
	}
	return true
}

// shed records one overload rejection against the shard and the tenant's
// fairness ledger, and builds the typed verdict with the shard's current
// backoff hint.
func (sh *shard) shed(tenant, queue string) error {
	sh.sheds.Add(1)
	sh.svc.tenant(tenant).shed.Add(1)
	return &pops.OverloadError{
		D: sh.key.d, G: sh.key.g, Tenant: tenant, Queue: queue,
		RetryAfter: sh.retryAfterHint(),
	}
}

// retryAfterHint estimates when the shard can admit again: the queued
// batches ahead times the measured per-batch plan time (the plan-time EWMA,
// floored at BatchDelay before any measurement exists), clamped to a sane
// advertisable range.
func (sh *shard) retryAfterHint() time.Duration {
	per := sh.svc.tracer.Plan.EWMA(sh.key.d, sh.key.g, pops.StrategyTheoremTwo)
	if per < sh.svc.cfg.BatchDelay {
		per = sh.svc.cfg.BatchDelay
	}
	batches := time.Duration(len(sh.reqs)/sh.svc.cfg.BatchSize + 1)
	hint := batches * per
	if hint < 5*time.Millisecond {
		hint = 5 * time.Millisecond
	}
	if hint > 2*time.Second {
		hint = 2 * time.Second
	}
	return hint
}

// tenantAdmit charges one queue slot to the tenant's bucket. While the
// queue is uncontended (less than half full) admission is free — quotas
// only bite when tenants are actually competing for queue service, so an
// idle shard never throttles a bursty tenant. It reports whether a token
// was debited (so a failed queue send can refund it) and whether the
// admission may proceed.
func (sh *shard) tenantAdmit(tenant string) (debited, ok bool) {
	if len(sh.reqs)*2 < cap(sh.reqs) {
		return false, true
	}
	sh.tenantMu.Lock()
	defer sh.tenantMu.Unlock()
	b := sh.bucketLocked(tenant)
	if b.tokens >= 1 {
		b.tokens--
		return true, true
	}
	return false, false
}

// bucketLocked resolves (creating on first use) one tenant's bucket. A new
// tenant starts with its full burst so it is never shed before its first
// credit round. Callers hold tenantMu.
func (sh *shard) bucketLocked(tenant string) *tenantBucket {
	b := sh.buckets[tenant]
	if b == nil {
		b = &tenantBucket{weight: sh.svc.cfg.tenantWeight(tenant)}
		sh.buckets[tenant] = b
		b.tokens = sh.burstLocked(b)
	}
	return b
}

// burstLocked is the most tokens one bucket may hold: the tenant's weight
// share of the queue depth, floored at 1 so every tenant can always make
// progress. Callers hold tenantMu.
func (sh *shard) burstLocked(b *tenantBucket) float64 {
	var total float64
	for _, o := range sh.buckets {
		total += o.weight
	}
	burst := float64(cap(sh.reqs)) * b.weight / total
	if burst < 1 {
		burst = 1
	}
	return burst
}

// creditTenants distributes n units of completed queue service across the
// tenants by weight — the bucket refill is the queue's measured drain rate,
// so a tenant's sustained admission rate converges on its weighted-fair
// share of whatever the planner can actually serve.
func (sh *shard) creditTenants(n int) {
	if n <= 0 {
		return
	}
	sh.tenantMu.Lock()
	defer sh.tenantMu.Unlock()
	if len(sh.buckets) == 0 {
		return
	}
	var total float64
	for _, b := range sh.buckets {
		total += b.weight
	}
	for _, b := range sh.buckets {
		b.tokens += float64(n) * b.weight / total
		if burst := sh.burstLocked(b); b.tokens > burst {
			b.tokens = burst
		}
	}
}

// refundTenant returns one debited token after a failed queue send.
func (sh *shard) refundTenant(tenant string) {
	sh.tenantMu.Lock()
	if b := sh.buckets[tenant]; b != nil {
		b.tokens++
	}
	sh.tenantMu.Unlock()
}

// close stops admissions and closes the queue; the loop drains whatever is
// already buffered and exits. Idempotent.
func (sh *shard) close() {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.closed = true
	sh.mu.Unlock()
	close(sh.reqs)
}

// loop is the shard's admission loop: it collects requests into a batch
// until the batch is full or BatchDelay has passed since the batch opened,
// then flushes the batch onto the planner. A closed queue delivers its
// buffered requests first, so shutdown drains in-flight work before the
// loop exits.
func (sh *shard) loop() {
	defer sh.svc.wg.Done()
	defer close(sh.done)
	size := sh.svc.cfg.BatchSize
	delay := sh.svc.cfg.BatchDelay
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var batch []request
	for {
		req, ok := <-sh.reqs
		if !ok {
			return
		}
		batch = append(batch[:0], req)
		timer.Reset(delay)
		timerDrained := false
	fill:
		for len(batch) < size {
			select {
			case r, ok := <-sh.reqs:
				if !ok {
					// Queue closed and empty: flush what we have; the
					// next outer receive observes the close and exits.
					break fill
				}
				batch = append(batch, r)
			case <-timer.C:
				timerDrained = true
				break fill
			}
		}
		if !timerDrained && !timer.Stop() {
			<-timer.C
		}
		sh.flush(batch)
	}
}

// flush coalesces the batch's duplicate permutations (so N concurrent
// identical requests cost at most one planner invocation), plans the unique
// ones through Planner.RouteBatchContexts, and fans the per-index results back
// out to every waiter.
func (sh *shard) flush(batch []request) {
	n := uint64(len(batch))
	sh.batches.Add(1)
	sh.batched.Add(n)
	for {
		cur := sh.maxBatch.Load()
		if n <= cur || sh.maxBatch.CompareAndSwap(cur, n) {
			break
		}
	}

	// Charge each waiter's queue delay — admission to flush start — to its
	// span's queue phase, whether or not its permutation dedups away. An
	// entry whose context has already expired is shed here, before the
	// planner sees it: its caller has given up (or its propagated deadline
	// passed while queued), so planning it would burn a worker on a result
	// nobody reads. The shed entry's waiter receives the context error.
	flushStart := time.Now()
	live := batch[:0]
	for _, r := range batch {
		r.sp.Add(obs.PhaseQueue, flushStart.Sub(r.at))
		if r.ctx != nil && r.ctx.Err() != nil {
			sh.deadlineSheds.Add(1)
			sh.svc.tenant(r.tenant).deadlineShed.Add(1)
			r.done <- Result{Err: r.ctx.Err()}
			continue
		}
		live = append(live, r)
	}
	batch = live
	defer sh.creditTenants(len(batch))
	if len(batch) == 0 {
		return
	}

	uniq := make([][]int, 0, len(batch))
	owners := make([][]int, 0, len(batch)) // unique index -> batch indices
	byFp := make(map[uint64][]int, len(batch))
	for bi, r := range batch {
		fp := pops.PermutationFingerprint(r.pi)
		idx := -1
		for _, ui := range byFp[fp] {
			if perms.Equal(uniq[ui], r.pi) {
				idx = ui
				break
			}
		}
		if idx < 0 {
			idx = len(uniq)
			uniq = append(uniq, r.pi)
			owners = append(owners, nil)
			byFp[fp] = append(byFp[fp], idx)
		}
		owners[idx] = append(owners[idx], bi)
	}

	// Each unique entry plans under the span of its first owner, so the
	// cache and factorize phases land on the request that triggered the
	// planning; duplicate waiters share the result but record no plan
	// phases of their own. The done-channel send orders those span writes
	// before the owning request reads its span back.
	ctxs := make([]context.Context, len(uniq))
	for ui, bis := range owners {
		if sp := batch[bis[0]].sp; sp != nil {
			ctxs[ui] = obs.ContextWithSpan(context.Background(), sp)
		}
	}

	plans, cached, err := sh.planner.RouteBatchContexts(ctxs, uniq)
	errs := perIndexErrors(err, len(uniq))
	for ui := range uniq {
		res := Result{Plan: plans[ui], Cached: cached[ui], Err: errs[ui]}
		for _, bi := range owners[ui] {
			batch[bi].done <- res
		}
	}
}

// perIndexErrors redistributes a RouteBatch errors.Join aggregate back onto
// batch indices, using the typed *pops.BatchError elements.
func perIndexErrors(err error, n int) []error {
	out := make([]error, n)
	if err == nil {
		return out
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		for i := range out {
			out[i] = err
		}
		return out
	}
	for _, sub := range joined.Unwrap() {
		var be *pops.BatchError
		if errors.As(sub, &be) && be.Index >= 0 && be.Index < n {
			out[be.Index] = be.Err
		}
	}
	return out
}

// stats snapshots the shard's counters.
func (sh *shard) stats() wire.ShardStats {
	cs := sh.planner.CacheStats()
	return wire.ShardStats{
		D:               sh.key.d,
		G:               sh.key.g,
		Requests:        sh.requests.Load(),
		Streams:         sh.streams.Load(),
		Batches:         sh.batches.Load(),
		BatchedRequests: sh.batched.Load(),
		MaxBatch:        sh.maxBatch.Load(),
		QueueLen:        len(sh.reqs),
		QueueCap:        cap(sh.reqs),
		Sheds:           sh.sheds.Load(),
		DeadlineSheds:   sh.deadlineSheds.Load(),
		ActiveStreams:   sh.activeStreams.Load(),
		Cache: wire.CacheStats{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Evictions: cs.Evictions,
			Entries:   cs.Entries,
			Capacity:  cs.Capacity,
		},
	}
}
