// Package chaos is the overload harness for the serving stack: scripted
// load ramps and induced slowness, with outcome classification and latency
// percentiles over the admitted requests. Its tests assert the robustness
// contract end to end — under sustained overload the service sheds excess
// load with typed 429 verdicts while the latency of what it does admit
// stays bounded ("shed, don't collapse") — and its benchmark records
// goodput and admitted-p99 at increasing load multiples.
package chaos

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pops"
)

// Slowdown is an HTTP middleware that injects a configurable delay in front
// of every request except health checks, simulating a node that is alive
// but degraded — the exact failure mode circuit breakers exist for, and one
// health-based ejection cannot see. The delay is adjustable at runtime so a
// test can degrade a backend mid-ramp and later lift the slowness to watch
// the breaker re-close.
type Slowdown struct {
	next    http.Handler
	delayNs atomic.Int64
}

// NewSlowdown wraps next with an initially-zero delay.
func NewSlowdown(next http.Handler) *Slowdown {
	return &Slowdown{next: next}
}

// Set replaces the injected delay. Zero restores pass-through.
func (s *Slowdown) Set(d time.Duration) { s.delayNs.Store(int64(d)) }

func (s *Slowdown) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := time.Duration(s.delayNs.Load()); d > 0 && r.URL.Path != "/healthz" {
		select {
		case <-time.After(d):
		case <-r.Context().Done():
		}
	}
	s.next.ServeHTTP(w, r)
}

// PlanDrag is a pops.PlanObserver that stalls the planning path by a
// configurable duration per plan. Installed through
// service.Config.PlannerOptions (the service chains it with its own
// plan-time observer), it turns the planner into a throttle with a known
// service rate, so overload tests can exceed capacity deterministically
// instead of racing the real planner's speed.
type PlanDrag struct {
	delayNs atomic.Int64
}

// Set replaces the injected per-plan stall. Zero restores full speed.
func (p *PlanDrag) Set(d time.Duration) { p.delayNs.Store(int64(d)) }

// ObservePlan implements pops.PlanObserver by sleeping the configured drag.
func (p *PlanDrag) ObservePlan(strategy string, cached bool, d time.Duration) {
	if stall := time.Duration(p.delayNs.Load()); stall > 0 {
		time.Sleep(stall)
	}
}

// Outcome classifies how one request of a ramp ended.
type Outcome int

const (
	// Admitted: the request was served successfully.
	Admitted Outcome = iota
	// Shed: the stack refused it with a typed overload verdict (HTTP 429).
	Shed
	// DeadlineShed: it died to its own deadline (queued past expiry, or the
	// server answered 504 for an already-expired X-Deadline).
	DeadlineShed
	// Failed: any other error — the collapse bucket overload must not fill.
	Failed
)

// Classify maps a request error to its Outcome.
func Classify(err error) Outcome {
	var oe *pops.OverloadError
	switch {
	case err == nil:
		return Admitted
	case errors.As(err, &oe):
		return Shed
	case errors.Is(err, context.DeadlineExceeded):
		return DeadlineShed
	default:
		return Failed
	}
}

// Report aggregates one ramp: outcome counts, the latency distribution of
// the admitted requests, and wall-clock elapsed.
type Report struct {
	Admitted     int
	Shed         int
	DeadlineShed int
	Failed       int
	Elapsed      time.Duration

	mu        sync.Mutex
	latencies []time.Duration
}

func (r *Report) observe(o Outcome, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch o {
	case Admitted:
		r.Admitted++
		r.latencies = append(r.latencies, d)
	case Shed:
		r.Shed++
	case DeadlineShed:
		r.DeadlineShed++
	case Failed:
		r.Failed++
	}
}

// Percentile returns the q-quantile (0 < q <= 1) of admitted-request
// latency, or 0 if nothing was admitted.
func (r *Report) Percentile(q float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.latencies...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// GoodputRPS is admitted requests per second of ramp wall-clock.
func (r *Report) GoodputRPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Admitted) / r.Elapsed.Seconds()
}

// Ramp drives a fixed number of requests through a shared counter from
// Workers concurrent generators, each pacing itself by Interval between its
// own requests. Offered load scales as Workers/Interval, so a test dials
// load multiples by adding workers while holding Interval fixed.
type Ramp struct {
	Workers  int           // concurrent generators (default 4)
	Requests int           // total requests across all workers
	Interval time.Duration // per-worker pause between requests (0 = none)
}

// Run executes the ramp, calling do for each request index and classifying
// the returned error. It stops early when ctx is cancelled.
func (rp Ramp) Run(ctx context.Context, do func(ctx context.Context, i int) error) *Report {
	workers := rp.Workers
	if workers <= 0 {
		workers = 4
	}
	rep := &Report{}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= rp.Requests {
					return
				}
				t0 := time.Now()
				err := do(ctx, i)
				rep.observe(Classify(err), time.Since(t0))
				if rp.Interval > 0 {
					select {
					case <-time.After(rp.Interval):
					case <-ctx.Done():
					}
				}
			}
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep
}
