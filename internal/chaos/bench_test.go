package chaos

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"pops"
	"pops/internal/service"
)

// BenchmarkOverloadShedding records the overload posture at increasing load
// multiples against a drag-throttled service: goodput (admitted requests
// per second) and the admitted-request p99 at 1x, 2x, and 4x the baseline
// offered load. The robustness contract is visible directly in the series:
// goodput saturates near capacity while admitted p99 stays bounded — the
// excess shows up as sheds, not as latency. ns/op is whole-ramp wall time.
//
// Compare a run against BENCH_2026-08-08_overload.json with:
//
//	go test -run '^$' -bench BenchmarkOverloadShedding -benchtime 3x ./internal/chaos
func BenchmarkOverloadShedding(b *testing.B) {
	loads := []struct {
		name    string
		workers int
		pace    time.Duration
	}{
		// Capacity under a 1ms drag is ~BatchSize (4) plans per ms. 1x sits
		// well under it; 2x near it; 4x (unpaced) far past it.
		{"load-1x", 2, 2 * time.Millisecond},
		{"load-2x", 6, time.Millisecond},
		{"load-4x", 16, 0},
	}
	for _, load := range loads {
		b.Run(load.name, func(b *testing.B) {
			drag := &PlanDrag{}
			drag.Set(time.Millisecond)
			cfg := service.Config{
				QueueDepth: 8, BatchSize: 4, BatchDelay: time.Millisecond,
				PlannerOptions: []pops.Option{pops.WithPlanObserver(drag)},
			}
			svc := service.New(cfg)
			srv := httptest.NewServer(svc.Handler())
			defer func() {
				drag.Set(0)
				svc.Close()
				srv.Close()
			}()
			client := pops.NewServiceClient(srv.URL, srv.Client())
			pi := pops.VectorReversal(16)
			do := func(ctx context.Context, i int) error {
				cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
				defer cancel()
				_, err := client.Execute(cctx, 4, 4, pops.Permutation(pi))
				return err
			}

			b.ResetTimer()
			var rep *Report
			for i := 0; i < b.N; i++ {
				rep = Ramp{Workers: load.workers, Requests: 300, Interval: load.pace}.
					Run(context.Background(), do)
			}
			b.StopTimer()
			b.ReportMetric(rep.GoodputRPS(), "goodput_rps")
			b.ReportMetric(float64(rep.Percentile(0.99))/1e6, "admitted_p99_ms")
			b.ReportMetric(float64(rep.Shed), "sheds")
		})
	}
}
