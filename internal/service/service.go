// Package service is the long-running serving layer over the pops planning
// library: a sharded planner service with micro-batching and a fingerprint
// plan cache, the subsystem behind cmd/popsserved.
//
// One shard wraps one pops.Planner per requested POPS(d, g) shape, created
// lazily on first use and bounded by an LRU over live shards. Each shard
// runs an admission queue that coalesces concurrent /route requests into
// micro-batches (flushed on batch size or a small deadline) onto
// Planner.RouteBatch, so the arena-backed allocation-free planning path is
// amortized across the wire, and duplicate in-flight permutations collapse
// onto a single planner invocation. Every shard's planner carries a
// WithPlanCache fingerprint cache, so recurring permutation families (BPC,
// mesh shifts) are answered without replanning; hit/miss counters and a
// request-latency histogram are exported over GET /stats.
//
// POST /route/stream delivers a plan incrementally: the stream checks a
// worker planner out of the shard's pool and flushes one NDJSON slot record
// per color class as the König factorization peels it, so the first slots
// reach the caller in a fraction of the full planning latency — and the
// shard's admission queue keeps admitting (and batching) other requests
// between records, including while a stream's factorization is still in
// progress. GET /stats exports a time-to-first-slot histogram next to the
// request-latency one.
//
// The HTTP surface (Handler) speaks the JSON schema of internal/wire:
// POST /route, POST /route/stream, GET /slots, GET /stats, GET /healthz.
// Close drains every shard's in-flight batches and slot streams before
// returning, which is what popsserved's graceful shutdown calls after
// http.Server.Shutdown.
package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pops"
	"pops/internal/obs"
	"pops/internal/wire"
)

// Config tunes the service. The zero value selects the defaults noted on
// each field.
type Config struct {
	// Name identifies this node in GET /stats (the Server field), so a
	// fleet aggregator can attribute shards and counters to machines.
	// Default "popsserved".
	Name string
	// MaxShards bounds the number of live planner shards (distinct POPS
	// shapes) via LRU eviction. Default 64.
	MaxShards int
	// BatchSize flushes a shard's admission queue once this many requests
	// have coalesced. Default 32.
	BatchSize int
	// BatchDelay flushes a partial batch this long after its first request
	// was admitted, bounding the latency cost of coalescing. Default 1ms.
	BatchDelay time.Duration
	// CacheSize is the per-shard fingerprint plan cache capacity in plans
	// (pops.WithPlanCache). Default 1024; negative disables caching.
	CacheSize int
	// PlannerOptions are extra options applied to every shard's planner
	// (e.g. pops.WithVerify, pops.WithParallelism, pops.WithAlgorithm).
	PlannerOptions []pops.Option
	// SlowRequests is how many of the slowest requests the tracer retains
	// for GET /debug/slow. Default 64.
	SlowRequests int
	// QueueDepth bounds each shard's admission queue. An admission that
	// finds the queue full is rejected immediately with a typed
	// *pops.OverloadError (HTTP 429) instead of blocking — load past the
	// bound is shed, not buffered. Default 32×BatchSize; negative means 1.
	QueueDepth int
	// MaxStreams bounds concurrently open slot streams per shard; excess
	// stream admissions are shed with *pops.OverloadError. Default 64;
	// negative disables the cap.
	MaxStreams int
	// MaxDirect bounds concurrently executing direct-path requests per
	// shard (the non-permutation workload kinds, which skip the
	// micro-batching queue). Default 0: no cap; set it to shed the direct
	// path too.
	MaxDirect int
	// TenantWeights assigns admission weights to tenant names for the
	// TenantMix quota model: when a shard's queue is contended, each tenant
	// is throttled to its weight's share of the queue's service rate.
	// Unlisted tenants (including the empty tenant) weigh 1. A nil map
	// leaves every tenant at weight 1 — fair sharing by request count.
	TenantWeights map[string]float64
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "popsserved"
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 64
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.BatchDelay == 0 {
		c.BatchDelay = time.Millisecond
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 32 * c.BatchSize
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 1
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = 64
	} else if c.MaxStreams < 0 {
		c.MaxStreams = 0 // uncapped
	}
	if c.MaxDirect < 0 {
		c.MaxDirect = 0 // uncapped
	}
	return c
}

// tenantWeight resolves a tenant's admission weight (1 unless configured).
func (c Config) tenantWeight(tenant string) float64 {
	if w, ok := c.TenantWeights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// ErrClosed is returned for requests admitted after Close started.
var ErrClosed = errors.New("service: shutting down")

// shapeKey identifies one planner shard.
type shapeKey struct{ d, g int }

// Service is the sharded planner service. Create one with New, mount
// Handler on an HTTP server, and Close it to drain in-flight batches on
// shutdown. All methods are safe for concurrent use.
type Service struct {
	cfg Config

	mu     sync.Mutex
	shards map[shapeKey]*list.Element
	lru    list.List // of *shard; front = most recently used
	closed bool
	wg     sync.WaitGroup // live shard loops

	requests      atomic.Uint64
	evictedShards atomic.Uint64
	// faultPlans counts faulty-permutation workloads served; unroutable
	// counts the subset that ended in a typed *pops.UnroutableError.
	faultPlans atomic.Uint64
	unroutable atomic.Uint64
	// retiredHits/Misses preserve the cache counters of evicted shards, so
	// /stats totals survive shard churn.
	retiredHits   atomic.Uint64
	retiredMisses atomic.Uint64
	// deadlineSheds counts the queued entries dropped because their
	// propagated deadline expired before a planner worker touched them.
	// Overload rejections (429) are counted per shard; retiredSheds and
	// retiredDeadlineSheds preserve evicted shards' counts, mirroring the
	// cache counters.
	deadlineSheds        atomic.Uint64
	retiredSheds         atomic.Uint64
	retiredDeadlineSheds atomic.Uint64
	latency              obs.Histogram

	// tenants is the per-tenant fairness ledger behind /stats and /metrics;
	// entries are created on a tenant's first admission or shed.
	tenantMu sync.RWMutex
	tenants  map[string]*tenantCounters

	// Per-codec wire-path ledgers: which negotiated response codec answered
	// each /route and /route/stream, and how many stream bytes it flushed.
	codecJSON   wireCodecCounters
	codecNDJSON wireCodecCounters
	codecBinary wireCodecCounters

	// Streaming state: /route/stream requests bypass the admission queues
	// (each stream owns a worker planner), so graceful drain tracks them
	// separately; ttfs is the time-to-first-slot histogram.
	streams       atomic.Uint64
	streamedSlots atomic.Uint64
	ttfs          obs.Histogram
	streamsWG     sync.WaitGroup

	// tracer owns request spans, the slowest-requests ring (/debug/slow)
	// and the per-(d, g, strategy) plan-time table.
	tracer *obs.Tracer
}

// wireCodecCounters is one response codec's live wire-path ledger.
type wireCodecCounters struct {
	requests      atomic.Uint64
	streams       atomic.Uint64
	streamedBytes atomic.Uint64
}

// snapshot renders the ledger as its wire form; ok is false when every
// counter is zero (the codec was never negotiated, so /stats omits it).
func (c *wireCodecCounters) snapshot(name string) (wire.WireCodecStats, bool) {
	st := wire.WireCodecStats{
		Codec:         name,
		Requests:      c.requests.Load(),
		Streams:       c.streams.Load(),
		StreamedBytes: c.streamedBytes.Load(),
	}
	return st, st.Requests != 0 || st.Streams != 0 || st.StreamedBytes != 0
}

// tenantCounters is one tenant's live fairness ledger.
type tenantCounters struct {
	admitted     atomic.Uint64
	shed         atomic.Uint64
	deadlineShed atomic.Uint64
}

// tenant resolves (creating on first use) the ledger for one tenant name.
func (s *Service) tenant(name string) *tenantCounters {
	s.tenantMu.RLock()
	tc := s.tenants[name]
	s.tenantMu.RUnlock()
	if tc != nil {
		return tc
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if tc = s.tenants[name]; tc == nil {
		tc = &tenantCounters{}
		s.tenants[name] = tc
	}
	return tc
}

// New builds a Service with the given configuration.
func New(cfg Config) *Service {
	s := &Service{
		cfg:     cfg.withDefaults(),
		shards:  make(map[shapeKey]*list.Element),
		tenants: make(map[string]*tenantCounters),
		tracer:  obs.NewTracer(cfg.SlowRequests),
	}
	return s
}

// Metrics returns the GET /metrics handler: each scrape renders Stats()
// through the metric tags of the wire schema. The binary mirrors it on its
// debug listener.
func (s *Service) Metrics() obs.Registry { return func() any { return s.Stats() } }

// observeLatency records one request into the latency histogram — unless
// ctx carries a trace span, in which case the HTTP layer observes the span's
// total after encoding instead, keeping the histogram observation and the
// span's phase breakdown two views of the same measured interval.
func (s *Service) observeLatency(ctx context.Context, start time.Time) {
	if obs.SpanFromContext(ctx) == nil {
		s.latency.Observe(time.Since(start))
	}
}

// shardFor returns the live shard for POPS(d, g), creating it (and evicting
// the least recently used shard past MaxShards) on first use.
func (s *Service) shardFor(d, g int) (*shard, error) {
	key := shapeKey{d, g}
	var victim *shard
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if el, ok := s.shards[key]; ok {
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return el.Value.(*shard), nil
	}
	sh, err := newShard(s, d, g)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.shards[key] = s.lru.PushFront(sh)
	if s.lru.Len() > s.cfg.MaxShards {
		back := s.lru.Back()
		victim = back.Value.(*shard)
		delete(s.shards, victim.key)
		s.lru.Remove(back)
	}
	s.wg.Add(1)
	go sh.loop()
	s.mu.Unlock()
	if victim != nil {
		s.retire(victim)
	}
	return sh, nil
}

// retire drains one evicted shard and folds its cache counters into the
// service totals. It runs outside the registry lock: draining only depends
// on the shard's own loop, which keeps consuming until the queue closes.
func (s *Service) retire(sh *shard) {
	sh.close()
	<-sh.done
	cs := sh.planner.CacheStats()
	s.retiredHits.Add(cs.Hits)
	s.retiredMisses.Add(cs.Misses)
	s.retiredSheds.Add(sh.sheds.Load())
	s.retiredDeadlineSheds.Add(sh.deadlineSheds.Load())
	s.evictedShards.Add(1)
}

// checkStrategy accepts the strategies the service plans: "" and
// "theorem2". The baselines (greedy, direct-optimal, singleslot, auto) run
// in-process behind popsroute -strategy, not over the wire.
func checkStrategy(strategy string) error {
	if strategy != "" && strategy != pops.StrategyTheoremTwo {
		return fmt.Errorf(`service: strategy %q is not served, only "theorem2" is; the baselines run in-process (popsroute -strategy)`, strategy)
	}
	return nil
}

// onShard runs admit on the live shard for POPS(d, g), resolving the shard
// again when it was evicted between lookup and admission.
func onShard[T any](s *Service, d, g int, admit func(*shard) (T, error)) (T, error) {
	for {
		sh, err := s.shardFor(d, g)
		if err != nil {
			var zero T
			return zero, err
		}
		v, err := admit(sh)
		if err != errShardRetired {
			return v, err
		}
	}
}

// countFaulty records one served faulty-permutation workload in the fault
// ledger, and in the unroutable count when err is the typed unroutable
// verdict. Other kinds are not counted.
func (s *Service) countFaulty(w pops.Workload, err error) {
	if w.Kind() != pops.WorkloadFaultyPermutation {
		return
	}
	s.faultPlans.Add(1)
	var ue *pops.UnroutableError
	if errors.As(err, &ue) {
		s.unroutable.Add(1)
	}
}

// Route plans one permutation on POPS(d, g) through the shard's admission
// queue. strategy must be "" or "theorem2"; any other value is a
// request-level error (HTTP 400) returned before a shard is touched. ctx
// gates the wait: a cancelled context abandons the request (the in-flight
// micro-batch still completes server-side) and returns ctx.Err(). The
// returned error is otherwise request-level (invalid shape, service
// shutting down); per-permutation planning failures come back in
// Result.Err, mirroring the batch contract.
func (s *Service) Route(ctx context.Context, d, g int, pi []int, strategy string) (Result, error) {
	if err := checkStrategy(strategy); err != nil {
		return Result{}, err
	}
	defer s.observeLatency(ctx, time.Now())
	s.requests.Add(1)
	return onShard(s, d, g, func(sh *shard) (Result, error) { return sh.route(ctx, pi) })
}

// Execute plans one workload on POPS(d, g), bypassing the micro-batching
// queue (which amortizes only the Theorem 2 permutation path; the HTTP
// surface sends permutations through Route): the workload is executed
// directly on the shard's planner, where it shares the pooled worker arenas
// and the fingerprint plan cache. ctx cancels planning between König
// factors. Request-level failures (invalid shape, shutdown) are returned as
// the error; workload planning failures come back in Result.Err, mirroring
// Route.
func (s *Service) Execute(ctx context.Context, d, g int, w pops.Workload) (Result, error) {
	if w == nil {
		return Result{}, pops.ErrNilWorkload
	}
	defer s.observeLatency(ctx, time.Now())
	s.requests.Add(1)
	res, err := onShard(s, d, g, func(sh *shard) (Result, error) { return sh.execute(ctx, w) })
	if err != nil {
		return Result{}, err
	}
	s.countFaulty(w, res.Err)
	return res, nil
}

// RouteMany plans a batch of permutations on POPS(d, g). All entries are
// admitted to the shard's queue before any result is awaited, so a batch
// coalesces with itself (and with concurrent requests) onto RouteBatch.
// Per-entry outcomes are independent: each result carries its own plan or
// error, mirroring the pops.Planner.RouteBatch contract — an entry shed by
// the admission bound carries its *pops.OverloadError without failing its
// batchmates. A cancelled ctx abandons the wait and returns ctx.Err().
func (s *Service) RouteMany(ctx context.Context, d, g int, pis [][]int) ([]Result, error) {
	defer s.observeLatency(ctx, time.Now())
	s.requests.Add(uint64(len(pis)))
	results := make([]Result, len(pis))
	waiters := make([]chan Result, len(pis))
	pending := pis
	offset := 0
	for len(pending) > 0 {
		sh, err := s.shardFor(d, g)
		if err != nil {
			return nil, err
		}
		admitted := 0
		retired := false
		for i, pi := range pending {
			ch, err := sh.admit(ctx, pi)
			if err == errShardRetired {
				retired = true
				break
			}
			var oe *pops.OverloadError
			if errors.As(err, &oe) {
				// A shed entry is a per-entry outcome: the rest of the batch
				// proceeds, so one full queue degrades a batch instead of
				// erasing it.
				results[offset+i] = Result{Err: err}
				admitted++
				continue
			}
			if err != nil {
				return nil, err
			}
			waiters[offset+i] = ch
			admitted++
		}
		for i := 0; i < admitted; i++ {
			if waiters[offset+i] == nil {
				continue // shed at admission; its Result is already filled
			}
			select {
			case results[offset+i] = <-waiters[offset+i]:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		pending = pending[admitted:]
		offset += admitted
		if !retired && len(pending) > 0 {
			// Unreachable: admit only stops early on retirement.
			return nil, fmt.Errorf("service: batch admission stalled")
		}
	}
	return results, nil
}

// Slots returns the Theorem 2 slot count for POPS(d, g) after validating
// the shape.
func (s *Service) Slots(d, g int) (int, error) {
	if _, err := pops.NewNetwork(d, g); err != nil {
		return 0, err
	}
	return pops.OptimalSlots(d, g), nil
}

// Stats snapshots the service counters: one entry per live shard plus
// service-wide totals (cache counters include evicted shards).
func (s *Service) Stats() wire.StatsResponse {
	s.mu.Lock()
	shards := make([]*shard, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		shards = append(shards, el.Value.(*shard))
	}
	s.mu.Unlock()

	resp := wire.StatsResponse{
		Server:          s.cfg.Name,
		ShardCount:      len(shards),
		MaxShards:       s.cfg.MaxShards,
		EvictedShards:   s.evictedShards.Load(),
		Requests:        s.requests.Load(),
		Streams:         s.streams.Load(),
		StreamedSlots:   s.streamedSlots.Load(),
		CacheHits:       s.retiredHits.Load(),
		CacheMisses:     s.retiredMisses.Load(),
		FaultPlans:      s.faultPlans.Load(),
		Unroutable:      s.unroutable.Load(),
		Sheds:           s.retiredSheds.Load(),
		DeadlineSheds:   s.deadlineSheds.Load() + s.retiredDeadlineSheds.Load(),
		Latency:         s.latency.Snapshot(),
		TimeToFirstSlot: s.ttfs.Snapshot(),
		PlanTimes:       s.tracer.Plan.Snapshot(),

		LatencySumMicros:         s.latency.SumMicros(),
		TimeToFirstSlotSumMicros: s.ttfs.SumMicros(),
	}
	for _, sh := range shards {
		st := sh.stats()
		st.Server = s.cfg.Name
		resp.CacheHits += st.Cache.Hits
		resp.CacheMisses += st.Cache.Misses
		resp.Sheds += st.Sheds
		resp.DeadlineSheds += st.DeadlineSheds
		resp.Shards = append(resp.Shards, st)
	}

	for _, c := range []struct {
		name    string
		counter *wireCodecCounters
	}{{wire.CodecJSON, &s.codecJSON}, {wire.CodecNDJSON, &s.codecNDJSON}, {wire.CodecBinary, &s.codecBinary}} {
		if st, ok := c.counter.snapshot(c.name); ok {
			resp.WireCodecs = append(resp.WireCodecs, st)
		}
	}

	s.tenantMu.RLock()
	for name, tc := range s.tenants {
		resp.Tenants = append(resp.Tenants, wire.TenantStats{
			Tenant:       name,
			Weight:       s.cfg.tenantWeight(name),
			Admitted:     tc.admitted.Load(),
			Shed:         tc.shed.Load(),
			DeadlineShed: tc.deadlineShed.Load(),
		})
	}
	s.tenantMu.RUnlock()
	sort.Slice(resp.Tenants, func(i, j int) bool { return resp.Tenants[i].Tenant < resp.Tenants[j].Tenant })
	return resp
}

// Close stops admitting requests, drains every shard's in-flight batches
// AND in-flight slot streams — a stream admitted before Close keeps
// delivering until its consumer has every remaining slot — and waits for
// the shard loops to exit. It is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		s.streamsWG.Wait()
		return
	}
	s.closed = true
	shards := make([]*shard, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		shards = append(shards, el.Value.(*shard))
	}
	s.mu.Unlock()
	for _, sh := range shards {
		sh.close()
	}
	s.wg.Wait()
	s.streamsWG.Wait()
}
