package cluster

import (
	"context"
	"sync"

	"pops/internal/obs"
	"pops/internal/wire"
)

// Stats aggregates GET /stats across the fleet: every backend is snapshot
// concurrently and folded in by the merge rules the wire schema declares
// (obs.Merge) — counters summed, histograms merged bucket-wise, plan-time
// EWMAs count-weighted, shard entries concatenated — and each node appears
// under Backends with the proxy's placement counters, its health verdict,
// and its full self-reported snapshot (nil if it was unreachable). The
// result is a wire.StatsResponse, so a ServiceClient pointed at the proxy
// decodes it exactly as it would a single node's.
func (p *Proxy) Stats(ctx context.Context) (*wire.StatsResponse, error) {
	snaps := make([]*wire.StatsResponse, len(p.backends))
	var wg sync.WaitGroup
	for i, b := range p.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			if s, err := b.client.Stats(ctx); err == nil {
				snaps[i] = s
			}
		}(i, b)
	}
	wg.Wait()

	agg := &wire.StatsResponse{Server: "popsproxy", Backends: p.Backends()}
	for i, s := range snaps {
		if s == nil {
			continue // unreachable: its Backends entry still records identity
		}
		bs := &agg.Backends[i]
		bs.Server = s.Server
		bs.CacheHits = s.CacheHits
		bs.CacheMisses = s.CacheMisses
		bs.Stats = s
		obs.Merge(agg, s)
	}
	return agg, nil
}
