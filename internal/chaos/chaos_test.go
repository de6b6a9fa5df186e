package chaos

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pops"
	"pops/internal/service"
	"pops/internal/wire"
)

// newShedStack builds a service whose planner is throttled by the returned
// PlanDrag, mounted on an httptest server, with a client pointed at it. The
// drag makes service capacity a known constant (≈ BatchSize per drag), so
// ramps can sit deterministically above or below it.
func newShedStack(t *testing.T, cfg service.Config, drag *PlanDrag) (*service.Service, *pops.ServiceClient) {
	t.Helper()
	cfg.PlannerOptions = append(cfg.PlannerOptions, pops.WithPlanObserver(drag))
	svc := service.New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		drag.Set(0) // let shutdown drain at full speed
		svc.Close()
		srv.Close()
	})
	return svc, pops.NewServiceClient(srv.URL, srv.Client())
}

// routeOnce is the unit of ramp load: one /route call with a generous
// propagated deadline (far above any bounded queue wait, so only a genuine
// stall could expire it).
func routeOnce(client *pops.ServiceClient, tenant string) func(ctx context.Context, i int) error {
	pi := pops.VectorReversal(16)
	return func(ctx context.Context, i int) error {
		cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if tenant != "" {
			cctx = pops.ContextWithTenant(cctx, tenant)
		}
		_, err := client.Execute(cctx, 4, 4, pops.Permutation(pi))
		return err
	}
}

// TestOverloadShedsDontCollapse is the tentpole assertion: a load ramp far
// past the throttled planner's capacity must be absorbed by shedding — a
// nonzero shed count, zero hard failures — while the latency of what IS
// admitted stays within 5x of the uncontended baseline p99 (floored at 10ms
// so scheduler noise on slow CI runners cannot fail a healthy stack).
func TestOverloadShedsDontCollapse(t *testing.T) {
	drag := &PlanDrag{}
	drag.Set(time.Millisecond)
	svc, client := newShedStack(t, service.Config{
		QueueDepth: 8, BatchSize: 4, BatchDelay: time.Millisecond,
	}, drag)

	// Baseline: 2 workers pacing at 2ms sit well under the ~4 plans/ms
	// drain, so nothing sheds and p99 is the uncontended floor.
	base := Ramp{Workers: 2, Requests: 100, Interval: 2 * time.Millisecond}.
		Run(context.Background(), routeOnce(client, ""))
	issued := base.Admitted + base.Shed + base.DeadlineShed + base.Failed
	if base.Shed != 0 || base.Failed != 0 || base.Admitted != issued {
		t.Fatalf("baseline ramp not clean: %+v", base)
	}
	p99Base := base.Percentile(0.99)

	// Overload: 16 unpaced workers against a queue of 8. The excess must
	// surface as typed sheds, not as errors and not as unbounded queueing.
	over := Ramp{Workers: 16, Requests: 600}.
		Run(context.Background(), routeOnce(client, ""))
	if over.Shed == 0 {
		t.Fatalf("overload ramp shed nothing: %+v", over)
	}
	if over.Failed != 0 {
		t.Fatalf("overload ramp hard-failed %d requests: %+v", over.Failed, over)
	}
	if over.Admitted == 0 {
		t.Fatalf("overload ramp admitted nothing: %+v", over)
	}

	bound := 5 * p99Base
	if floor := 5 * 10 * time.Millisecond; bound < floor {
		bound = floor
	}
	if p99 := over.Percentile(0.99); p99 > bound {
		t.Fatalf("admitted p99 under overload = %v, want <= %v (baseline p99 %v): latency collapsed instead of shedding", p99, bound, p99Base)
	}

	// The server's own ledger agrees with the client-side classification.
	stats := svc.Stats()
	if stats.Sheds < uint64(over.Shed) {
		t.Fatalf("server sheds = %d, client observed %d", stats.Sheds, over.Shed)
	}
}

// TestTenantWeightedFairness pins the TenantMix guarantee end to end: two
// tenants offering identical overload, weighted 9:1, and the 10%-weight
// tenant must still land at least 8% of admitted goodput — throttled to its
// share, never starved.
func TestTenantWeightedFairness(t *testing.T) {
	drag := &PlanDrag{}
	drag.Set(time.Millisecond)
	svc, client := newShedStack(t, service.Config{
		QueueDepth: 16, BatchSize: 4, BatchDelay: time.Millisecond,
		TenantWeights: map[string]float64{"gold": 9, "free": 1},
	}, drag)

	reports := make(map[string]*Report, 2)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, tenant := range []string{"gold", "free"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			rep := Ramp{Workers: 8, Requests: 400}.
				Run(context.Background(), routeOnce(client, tenant))
			mu.Lock()
			reports[tenant] = rep
			mu.Unlock()
		}(tenant)
	}
	wg.Wait()

	for tenant, rep := range reports {
		if rep.Failed != 0 {
			t.Fatalf("tenant %s hard-failed %d requests: %+v", tenant, rep.Failed, rep)
		}
	}

	var gold, free wire.TenantStats
	for _, ts := range svc.Stats().Tenants {
		switch ts.Tenant {
		case "gold":
			gold = ts
		case "free":
			free = ts
		}
	}
	if free.Shed == 0 {
		t.Fatalf("free tenant was never throttled (free=%+v gold=%+v): the ramp did not contend the queue", free, gold)
	}
	if gold.Admitted <= free.Admitted {
		t.Fatalf("weights did not bite: gold admitted %d <= free admitted %d", gold.Admitted, free.Admitted)
	}
	share := float64(free.Admitted) / float64(free.Admitted+gold.Admitted)
	if share < 0.08 {
		t.Fatalf("free tenant's admitted share = %.3f, want >= 0.08 (free=%+v gold=%+v)", share, free, gold)
	}
}

// TestSlowdownSparesHealthz pins the Slowdown contract the smoke test leans
// on: injected delay stalls routing but never the health endpoint, so a
// degraded-but-alive backend keeps passing health checks (the failure mode
// that needs a circuit breaker rather than ejection).
func TestSlowdownSparesHealthz(t *testing.T) {
	drag := &PlanDrag{}
	svc, _ := newShedStack(t, service.Config{}, drag)
	slow := NewSlowdown(svc.Handler())
	srv := httptest.NewServer(slow)
	t.Cleanup(srv.Close)
	slow.Set(50 * time.Millisecond)

	client := pops.NewServiceClient(srv.URL, srv.Client())

	start := time.Now()
	if err := client.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz through slowdown: %v", err)
	}
	if d := time.Since(start); d >= 50*time.Millisecond {
		t.Fatalf("healthz took %v, want unstalled", d)
	}

	start = time.Now()
	if _, err := client.Execute(context.Background(), 4, 4, pops.Permutation(pops.VectorReversal(16))); err != nil {
		t.Fatalf("route through slowdown: %v", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("route took %v, want >= the injected 50ms", d)
	}
}
