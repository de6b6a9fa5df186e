package cluster

import (
	"pops/internal/obs"
	"pops/internal/wire"
)

// proxyMetrics is the snapshot the proxy's GET /metrics renders: one row
// per backend, labeled by ring identity so failovers and ejections are
// attributable to the node that caused them, with the fleet-wide sums the
// rows' total tags declare, plus the proxy's own end-to-end /route latency.
// Backend-reported metrics are not re-exported here (scrape the backends,
// or read the fleet-merged GET /stats).
type proxyMetrics struct {
	Backends         int `metric:"pops_fleet_backends,gauge" help:"Backends configured on the ring."`
	Nodes            []wire.BackendStats
	Latency          []wire.LatencyBucket `metric:"pops_proxy_request_latency_seconds,histogram" sum:"LatencySumMicros" help:"Proxy end-to-end /route latency (forward plus relay)."`
	LatencySumMicros float64
}

// Metrics returns the GET /metrics handler: each scrape renders the live
// per-backend counters (Backends) and the proxy's latency histogram. The
// binary mirrors it on its debug listener.
func (p *Proxy) Metrics() obs.Registry {
	return func() any {
		return proxyMetrics{
			Backends:         len(p.backends),
			Nodes:            p.Backends(),
			Latency:          p.latency.Snapshot(),
			LatencySumMicros: p.latency.SumMicros(),
		}
	}
}
