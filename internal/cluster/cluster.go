// Package cluster is the POPS front door: a consistent-hash fan-out of
// routing workloads across a fleet of popsserved backends, the subsystem
// behind cmd/popsproxy.
//
// One process of the sharded planner service (internal/service) caps out at
// one machine's cores. The Proxy scales the same wire protocol horizontally:
// each request is placed on a consistent-hash ring keyed by
// (d, g, WorkloadFingerprint), so a replayed workload — or a duplicate one
// in flight — always lands on the backend that already owns its
// materialized plan, keeping every node's shard LRU and fingerprint plan
// cache hot (shape- and content-affine placement). A background health
// checker probes every backend's GET /healthz, ejecting nodes after
// consecutive failures and re-admitting them on recovery; placement walks
// ring successors past ejected nodes, so only the keys of a dead backend
// move. Connection errors fail over to the next ring owner with bounded
// backoff — but only for idempotent work: a slot stream that has already
// delivered records surfaces the error instead of replaying.
//
// Handler exposes the HTTP surface of a single node (POST /route, POST
// /route/stream re-framed chunk by chunk without buffering whole plans,
// GET /slots, GET /stats aggregated across the fleet, GET /healthz), so
// pops.ServiceClient pointed at a popsproxy works unchanged and a caller
// cannot tell one machine from a fleet. It is the proxy's one front: every
// request is placed and forwarded by the same handlers.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"pops"
	"pops/internal/backoff"
	"pops/internal/obs"
	"pops/internal/wire"
)

// Config tunes the proxy. Backends is required; the zero value of every
// other field selects the default noted on it.
type Config struct {
	// Backends are the popsserved base URLs (e.g. "http://10.0.0.1:8714")
	// forming the fleet. At least one is required.
	Backends []string
	// Replicas is the number of virtual nodes per backend on the hash ring.
	// Default 64.
	Replicas int
	// HealthInterval is the period of the background health checker.
	// Default 1s.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe. Default 2s.
	HealthTimeout time.Duration
	// FailAfter is the number of consecutive failed probes that ejects a
	// backend from placement (a connection error on live traffic ejects
	// immediately). One successful probe re-admits it. Default 2.
	FailAfter int
	// Retries bounds failover: a request that hits a connection error is
	// retried on up to Retries further ring owners. Default 2.
	Retries int
	// RetryBackoff is the pause before the first failover attempt, doubled
	// per further attempt. Default 10ms.
	RetryBackoff time.Duration
	// MaxPerBackend caps how many proxied forwards may be in flight on one
	// backend; placements over the cap skip to the next ring owner, and shed
	// with 429 + Retry-After when no owner can take them. Default 128;
	// negative uncaps.
	MaxPerBackend int
	// BreakerFailures is the consecutive live-traffic connection-error count
	// that trips a backend's circuit breaker open. Default 5; negative
	// disables the consecutive-error trip.
	BreakerFailures int
	// BreakerLatency trips the breaker open when a backend's forward-latency
	// EWMA exceeds it (after a minimum of 8 samples) — cutting out a node
	// that is alive but pathologically slow. Default 0 = disabled.
	BreakerLatency time.Duration
	// BreakerCooldown is how long an open breaker waits before a successful
	// health probe moves it to half-open. Default 1s.
	BreakerCooldown time.Duration
	// Client is the HTTP client shared by placement traffic and health
	// probes. Default: a dedicated client with a pooled transport.
	Client *http.Client
	// SlowRequests is how many of the slowest proxied requests the tracer
	// retains for GET /debug/slow. Default 64.
	SlowRequests int
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.MaxPerBackend == 0 {
		c.MaxPerBackend = 128
	} else if c.MaxPerBackend < 0 {
		c.MaxPerBackend = 0
	}
	if c.BreakerFailures == 0 {
		c.BreakerFailures = 5
	} else if c.BreakerFailures < 0 {
		c.BreakerFailures = 0
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 128}}
	}
	return c
}

// ErrClosed is returned for requests admitted after Close started.
var ErrClosed = errors.New("cluster: shutting down")

// backend is one popsserved node: its ring identity, a ServiceClient for
// typed calls, the proxy's health verdict, and per-backend counters.
type backend struct {
	id     string // base URL, the ring identity
	client *pops.ServiceClient

	healthy atomic.Bool
	fails   atomic.Int32 // consecutive failed probes

	requests  atomic.Uint64 // requests the proxy placed here
	streams   atomic.Uint64 // streams the proxy placed here
	failovers atomic.Uint64 // requests that left here for the next owner
	errors    atomic.Uint64 // connection errors observed here
	ejections atomic.Uint64 // healthy -> ejected transitions

	inflight atomic.Int64  // proxied forwards currently on this backend
	sheds    atomic.Uint64 // overload verdicts here: backend 429s + proxy-cap skips

	// Circuit breaker (see breaker.go): state machine, trip inputs, and the
	// forward-latency EWMA (float64 bits, microseconds).
	brState    atomic.Int32
	brOpens    atomic.Uint64
	brOpenedAt atomic.Int64 // unix nanos of the last open transition
	brProbe    atomic.Bool  // half-open single-probe token
	reqFails   atomic.Int32 // consecutive live-traffic connection errors
	latEWMA    atomic.Uint64
	latSamples atomic.Int64
}

// markDown ejects the backend immediately (live-traffic connection error):
// re-admission requires a fresh successful health probe.
func (b *backend) markDown(failAfter int) {
	b.fails.Store(int32(failAfter))
	b.eject()
}

// eject flips the backend unhealthy, counting only the transition — repeated
// failures of an already-ejected node are not new ejections.
func (b *backend) eject() {
	if b.healthy.CompareAndSwap(true, false) {
		b.ejections.Add(1)
	}
}

// Proxy is the cluster front door. Create one with New, mount Handler on an
// HTTP server — clients reach the fleet with the unchanged pops.ServiceClient
// — and Close it on shutdown. All methods are safe for concurrent use.
type Proxy struct {
	cfg      Config
	backends []*backend
	ring     *ring

	// jitter perturbs each failover backoff pause (defaultJitter unless a
	// test injects its own), so proxies that lose the same backend at the
	// same moment do not retry the survivors in lockstep.
	jitter func(time.Duration) time.Duration

	closed     atomic.Bool
	stop       chan struct{}
	healthDone chan struct{}
	inflight   sync.WaitGroup // in-flight proxied HTTP requests and streams

	// tracer owns proxy-side request spans (forward and encode phases,
	// backend attribution) and the /debug/slow ring; latency is the proxy's
	// own end-to-end /route histogram.
	tracer  *obs.Tracer
	latency obs.Histogram
}

// New builds a Proxy over cfg.Backends and starts its background health
// checker. Backends start admitted; the first probe round (run immediately)
// corrects the verdict for nodes that are already down.
func New(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: at least one backend is required")
	}
	seen := make(map[string]bool, len(cfg.Backends))
	p := &Proxy{cfg: cfg, jitter: defaultJitter, stop: make(chan struct{}), healthDone: make(chan struct{})}
	ids := make([]string, 0, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: backend %q is not an absolute URL", raw)
		}
		id := u.Scheme + "://" + u.Host
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", id)
		}
		seen[id] = true
		b := &backend{id: id, client: pops.NewServiceClient(id, cfg.Client)}
		b.healthy.Store(true)
		p.backends = append(p.backends, b)
		ids = append(ids, id)
	}
	p.ring = newRing(ids, cfg.Replicas)
	p.tracer = obs.NewTracer(cfg.SlowRequests)
	go p.healthLoop()
	return p, nil
}

// Close stops the health checker, stops admitting HTTP requests, and waits
// for in-flight proxied requests and streams to finish — the drain half of
// popsproxy's graceful shutdown, mirroring popsserved. Idempotent.
func (p *Proxy) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.stop)
	}
	<-p.healthDone
	p.inflight.Wait()
}

// healthLoop probes every backend each HealthInterval, ejecting after
// FailAfter consecutive failures and re-admitting on the first success.
func (p *Proxy) healthLoop() {
	defer close(p.healthDone)
	t := time.NewTicker(p.cfg.HealthInterval)
	defer t.Stop()
	p.probeAll()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

// probeAll runs one concurrent health round across the fleet.
func (p *Proxy) probeAll() {
	var wg sync.WaitGroup
	for _, b := range p.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), p.cfg.HealthTimeout)
			defer cancel()
			if err := b.client.Healthz(ctx); err != nil {
				if b.fails.Add(1) >= int32(p.cfg.FailAfter) {
					b.eject()
				}
				return
			}
			b.fails.Store(0)
			b.healthy.Store(true)
			p.maybeHalfOpen(b)
		}(b)
	}
	wg.Wait()
}

// ownersFor resolves the failover chain of one placement key: the live ring
// owners in successor order, excluding nodes whose circuit breaker is open
// (half-open nodes stay in the chain — one placement is their recovery
// probe). If every backend is ejected or open the full ring order is
// returned instead — placement degrades to "try them all" rather than
// refusing traffic on a pessimistic verdict.
func (p *Proxy) ownersFor(key uint64) []*backend {
	idx := p.ring.owners(key, p.ring.n, make([]int, 0, p.ring.n))
	live := make([]*backend, 0, len(idx))
	for _, i := range idx {
		if p.backends[i].healthy.Load() && p.backends[i].brState.Load() != brOpen {
			live = append(live, p.backends[i])
		}
	}
	if len(live) > 0 {
		return live
	}
	all := make([]*backend, 0, len(idx))
	for _, i := range idx {
		all = append(all, p.backends[i])
	}
	return all
}

// defaultJitter maps a doubling backoff step to a uniform pause in
// [d/2, d]. Without it, every proxy that observed the same backend death
// at the same moment retries the surviving owners in synchronized waves.
// The spread is shared with the client's overload retries (internal/backoff)
// so both tiers decorrelate the same way.
func defaultJitter(d time.Duration) time.Duration {
	return backoff.Jitter(d)
}

// isConnErr reports whether err is a transport-level failure — the backend
// could not be reached or hung up before answering — as opposed to a
// deterministic request- or plan-level error that every node would repeat.
// Only connection errors are worth failing over.
func isConnErr(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue)
}

// tryOwners runs fn against the owners of key in failover order: the ring
// owner first, then successors. How a failure moves on depends on what kind
// it is — that distinction is the heart of overload-aware failover:
//
//   - Unadmittable owner (breaker open, or at the MaxPerBackend cap): skipped
//     silently, no pause — nothing was sent, so nothing is charged.
//   - Connection error: the node is dead — ejected immediately (markDown) and
//     charged to its breaker; the next owner is tried after a doubling,
//     jittered backoff, up to Retries times. The health loop re-admits the
//     node when its /healthz recovers.
//   - Overload verdict (*pops.OverloadError — the backend answered 429): the
//     node is alive and explicitly shedding, so it is neither ejected nor
//     backed off from; the request spills to the next owner once, and a
//     second shed is relayed to the caller, whose Retry-After backoff is the
//     correct response to fleet-wide pressure.
//   - Deterministic error (bad request, per-plan failure): returned from the
//     first node that produced it — every node would repeat it.
//
// If no owner could even be attempted, the proxy itself sheds with a typed
// overload verdict ("backend" queue), which the HTTP layer maps to 429.
func tryOwners[T any](p *Proxy, ctx context.Context, key uint64, fn func(*backend) (T, error)) (T, error) {
	var zero T
	owners := p.ownersFor(key)
	var lastErr error      // last connection error
	var lastOverload error // last overload verdict
	connRetries, spills, tried := 0, 0, 0
	for _, b := range owners {
		release, ok := p.acquire(b)
		if !ok {
			continue
		}
		tried++
		start := time.Now()
		v, err := fn(b)
		release()
		if err == nil {
			p.noteSuccess(b, time.Since(start))
			return v, nil
		}
		if ctx.Err() != nil {
			return zero, ctx.Err()
		}
		var oe *pops.OverloadError
		if errors.As(err, &oe) {
			b.sheds.Add(1)
			if spills == 0 {
				spills++
				lastOverload = err
				continue // spill once, without a pause: siblings may have room
			}
			return zero, err
		}
		if !isConnErr(err) {
			b.reqFails.Store(0) // a deterministic answer means the node is alive
			return zero, err
		}
		b.errors.Add(1)
		b.failovers.Add(1)
		b.markDown(p.cfg.FailAfter)
		p.noteFailure(b)
		lastErr = err
		if connRetries >= p.cfg.Retries {
			break
		}
		connRetries++
		pause := p.jitter(p.cfg.RetryBackoff << uint(connRetries-1))
		select {
		case <-time.After(pause):
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	if lastErr != nil {
		return zero, fmt.Errorf("cluster: all %d placement attempt(s) failed: %w", tried, lastErr)
	}
	if lastOverload != nil {
		return zero, lastOverload
	}
	return zero, &pops.OverloadError{Queue: "backend", RetryAfter: 50 * time.Millisecond}
}

// Slots returns the Theorem 2 slot count for POPS(d, g). The answer is a
// pure function of the shape, so any backend serves it; placement still
// hashes the shape so repeated asks reuse one node's connection.
func (p *Proxy) Slots(ctx context.Context, d, g int) (int, error) {
	return tryOwners(p, ctx, placementKey(d, g, 0), func(b *backend) (int, error) {
		return b.client.Slots(ctx, d, g)
	})
}

// Healthz reports fleet liveness: nil while the proxy admits requests and
// at least one backend is admitted to placement.
func (p *Proxy) Healthz(ctx context.Context) error {
	if p.closed.Load() {
		return ErrClosed
	}
	for _, b := range p.backends {
		if b.healthy.Load() {
			return nil
		}
	}
	return errors.New("cluster: no healthy backends")
}

// Backends snapshots the proxy-side view of every node: identity, health
// verdict, placement counters, in-flight forwards and the breaker's state
// and latency EWMA (no network round-trips).
func (p *Proxy) Backends() []wire.BackendStats {
	out := make([]wire.BackendStats, len(p.backends))
	for i, b := range p.backends {
		out[i] = wire.BackendStats{
			ID:           b.id,
			Healthy:      b.healthy.Load(),
			Requests:     b.requests.Load(),
			Streams:      b.streams.Load(),
			Failovers:    b.failovers.Load(),
			Errors:       b.errors.Load(),
			Ejections:    b.ejections.Load(),
			Sheds:        b.sheds.Load(),
			Inflight:     b.inflight.Load(),
			BreakerState: breakerStateName(b.brState.Load()),
			BreakerOpens: b.brOpens.Load(),

			LatencyEWMAMicros: float64(b.latencyEWMA()) / float64(time.Microsecond),
		}
	}
	return out
}
