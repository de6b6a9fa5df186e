package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"pops"
	"pops/internal/service"
)

// BenchmarkClusterScaling measures aggregate proxy throughput as the fleet
// grows 1 → 2 → 4 backends under a zipfian permutation trace whose working
// set (256 distinct permutations) exceeds any single backend's plan cache
// (64 entries). Consistent hashing partitions the key space, so the fleet's
// aggregate cache capacity — and with it the hit rate — grows with the node
// count: scaling here is cache capacity, not CPU parallelism, which makes
// the benchmark meaningful even on a single-core host. RPS = 1e9 / ns_per_op.
func BenchmarkClusterScaling(b *testing.B) {
	const (
		d, g       = 16, 32
		perms      = 256 // distinct permutations in the trace
		cachePer   = 64  // per-backend plan cache entries
		zipfS      = 1.07
		traceSteps = 1 << 16 // fixed trace replayed modulo its length
	)

	// One fixed trace for every fleet size: 256 distinct permutations drawn
	// once, visited in a zipfian order so a hot head stays cache-resident
	// everywhere while the tail only fits in the aggregate fleet cache.
	rng := rand.New(rand.NewSource(7))
	pis := make([][]int, perms)
	for i := range pis {
		pis[i] = rng.Perm(d * g)
	}
	zipf := rand.NewZipf(rng, zipfS, 1, perms-1)
	trace := make([]int, traceSteps)
	for i := range trace {
		trace[i] = int(zipf.Uint64())
	}

	for _, nodes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("backends=%d", nodes), func(b *testing.B) {
			servers := make([]*httptest.Server, nodes)
			urls := make([]string, nodes)
			for i := range servers {
				svc := service.New(service.Config{
					Name:      fmt.Sprintf("bench-%d", i),
					BatchSize: 1, // sequential driver: flush immediately
					CacheSize: cachePer,
				})
				servers[i] = httptest.NewServer(svc.Handler())
				urls[i] = servers[i].URL
				defer servers[i].Close()
				defer svc.Close()
			}
			proxy, err := New(Config{Backends: urls, HealthInterval: time.Second})
			if err != nil {
				b.Fatal(err)
			}
			defer proxy.Close()
			_, client := serveFront(b, proxy)

			ctx := context.Background()
			// Warm: one pass over the hot head so steady-state cache
			// behaviour, not cold misses, is what b.N measures.
			for i := 0; i < perms/4; i++ {
				if _, err := client.Execute(ctx, d, g, pops.Permutation(pis[trace[i]])); err != nil {
					b.Fatal(err)
				}
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pi := pis[trace[i%traceSteps]]
				if _, err := client.Execute(ctx, d, g, pops.Permutation(pi)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
