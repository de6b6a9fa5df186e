package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"pops/internal/edgecolor"
	"pops/internal/wire"
)

// observer is the benchmark's pops.PlanObserver, chained into every
// backend's planner through service.Config.PlannerOptions in traced runs.
type observer struct {
	plans, cached, nanos atomic.Int64
}

func (o *observer) ObservePlan(_ string, cached bool, d time.Duration) {
	o.plans.Add(1)
	if cached {
		o.cached.Add(1)
	}
	o.nanos.Add(int64(d))
}

type obsSnap struct{ plans, cached, nanos int64 }

func (o *observer) snap() obsSnap { return obsSnap{o.plans.Load(), o.cached.Load(), o.nanos.Load()} }

// runTraced is the per-layer run: the layer ladder, then the timed phase
// twice — half of the time without the benchmark's observer and half with
// it — so the traced figures come with their own overhead.
func runTraced(sp *spec, in *inputs, dur time.Duration) (*result, error) {
	lad, err := runLadder(sp, in)
	if err != nil {
		return nil, err
	}
	_, stU, err := setUp(sp, in, nil, 1)
	if err != nil {
		return nil, err
	}
	phU := stU.run(bg, sp, in, dur/2)
	stU.close()

	ob := &observer{}
	_, st, err := setUp(sp, in, ob, 1)
	if err != nil {
		return nil, err
	}
	defer st.close()
	o0 := ob.snap()
	ph := st.run(bg, sp, in, dur/2)
	o1 := ob.snap()
	vAttempted, vFailed, vErr := st.verifyAll(in.sample)

	okU, failedU, errU := phU.tally()
	ok, failed, firstErr := ph.tally()
	res := &result{
		Attempted: len(phU.samples) + len(ph.samples) + vAttempted,
		Failed:    failedU + failed + vFailed,
	}
	res.Correct = res.Failed == 0
	if firstErr == nil {
		firstErr = errU
	}
	if len(ok) == 0 || len(okU) == 0 {
		return nil, fmt.Errorf("no request succeeded (first error: %v)", firstErr)
	}
	l := lats(ok)
	p50, p50U := median(l), median(lats(okU))
	res.Metrics = map[string]metric{}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	med := lad.med

	put("matching.perfect_match_us", "us", 1000*med["matching.perfect_match"])
	put("edgecolor.factorize_ms", "ms", med["edgecolor.factorize"])
	for _, a := range []edgecolor.Algorithm{edgecolor.RepeatedMatching, edgecolor.EulerSplitDC, edgecolor.Insertion} {
		put("edgecolor.factorize_ms."+a.String(), "ms", med["edgecolor.factorize."+a.String()])
	}
	put("edgecolor.first_factor_ms", "ms", med["edgecolor.first_factor"])
	put("core.plan_ms", "ms", med["core.plan"])
	put("core.assembly_ms", "ms", med["core.plan"]-med["edgecolor.factorize"])
	put("core.hrelation_ms", "ms", med["core.hrelation"])
	put("core.first_slot_ms", "ms", med["core.first_slot"])

	plans := float64(max(o1.plans-o0.plans, 1))
	put("pops.execute_cold_ms", "ms", med["pops.execute_cold"])
	put("pops.execute_hit_us", "us", 1000*med["pops.execute_hit"])
	put("pops.first_slot_ms", "ms", med["pops.first_slot"])
	put("pops.cache_hit_ratio", "ratio", float64(o1.cached-o0.cached)/plans)
	planMean := float64(o1.nanos-o0.nanos) / plans / 1e6
	put("pops.plan_ms_mean", "ms", planMean)

	planner := med["pops.execute_cold"]
	if lad.chain[0] == "pops.execute_hit" {
		planner = med["pops.execute_hit"]
	}
	sv := sumStats(ph.stats0, ph.stats1)
	put("service.inproc_ms", "ms", med["service.inproc"])
	put("service.admission_ms", "ms", med["service.inproc"]-planner)
	put("service.batch_size_mean", "count", ratio(sv.batched, sv.batches))
	put("service.shed_ratio", "ratio", ratio(sv.sheds, sv.requests+sv.streams))

	put("wirebin.encode_ns_per_slot", "ns", lad.encNs)
	put("wirebin.decode_ns_per_slot", "ns", lad.decNs)
	bytesPerSlot := lad.frameBytes
	if frags := binarySlots(ok); frags > 0 {
		bytesPerSlot = float64(sv.binaryBytes) / float64(frags)
	}
	put("wirebin.bytes_per_slot", "B", bytesPerSlot)

	httpTop := "http.unary"
	if in.ladder[0].stream {
		httpTop = "http.stream"
	}
	put("http.unary_ms", "ms", med["http.unary"])
	put("http.stream_ms", "ms", med["http.stream"])
	put("http.self_ms", "ms", med[httpTop]-med["service.inproc"])
	put("http.stream_first_slot_ms", "ms", med["http.stream_first_slot"])
	put("serving_tax_ms", "ms", p50-planMean)

	be0, be1 := []wire.BackendStats(nil), lad.proxy
	if ph.proxy1 != nil {
		be0, be1 = ph.proxy0, ph.proxy1
	}
	cl := clusterDelta(be0, be1)
	put("cluster.hop_ms", "ms", med["cluster.hop"])
	put("cluster.failovers", "count", cl.failovers)
	put("cluster.errors", "count", cl.errors)
	put("cluster.backend_skew", "ratio", cl.skew)

	for _, c := range mixedClasses {
		v := lad.classP50[c]
		if sp.rate > 0 {
			var xs []float64
			for _, s := range ok {
				if s.req.class == c {
					xs = append(xs, s.lat)
				}
			}
			v = median(xs)
		}
		put("mixed."+c+".latency_p50_ms", "ms", v)
	}

	t := ttfss(ok)
	put("client.latency_p90_ms", "ms", quantile(l, 0.90))
	put("client.latency_p99_ms", "ms", quantile(l, 0.99))
	put("client.ttfs_p90_ms", "ms", quantile(t, 0.90))
	put("client.ttfs_p99_ms", "ms", quantile(t, 0.99))
	for _, kv := range envMetrics(ph, len(ok)) {
		res.Metrics[kv.name] = kv.metric
	}
	put("trace.overhead_pct", "%", 100*(p50-p50U)/p50U)
	attributed := med[lad.chain[len(lad.chain)-1]]
	if sp.rate > 0 {
		attributed = lad.classMix
	}
	put("ladder.unattributed_ms", "ms", p50-attributed)

	report(sp, res, ph, len(ok), firstErr, vErr)
	lad.print(os.Stderr, sp, p50, attributed)
	return res, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// svcDelta sums the routing-service counters of every backend over the
// timed phase.
type svcDelta struct {
	requests, streams, batches, batched, sheds, binaryBytes uint64
}

func sumStats(s0, s1 []wire.StatsResponse) svcDelta {
	var d svcDelta
	for i := range s1 {
		a, b := s0[i], s1[i]
		d.requests += b.Requests - a.Requests
		d.streams += b.Streams - a.Streams
		d.sheds += b.Sheds - a.Sheds
		d.batches += shardSum(b, func(s wire.ShardStats) uint64 { return s.Batches }) -
			shardSum(a, func(s wire.ShardStats) uint64 { return s.Batches })
		d.batched += shardSum(b, func(s wire.ShardStats) uint64 { return s.BatchedRequests }) -
			shardSum(a, func(s wire.ShardStats) uint64 { return s.BatchedRequests })
		d.binaryBytes += codecBytes(b, wire.CodecBinary) - codecBytes(a, wire.CodecBinary)
	}
	return d
}

func shardSum(s wire.StatsResponse, f func(wire.ShardStats) uint64) uint64 {
	var n uint64
	for _, sh := range s.Shards {
		n += f(sh)
	}
	return n
}

func codecBytes(s wire.StatsResponse, codec string) uint64 {
	for _, c := range s.WireCodecs {
		if c.Codec == codec {
			return c.StreamedBytes
		}
	}
	return 0
}

// binarySlots counts the slot records the binary-codec streams of ss
// delivered.
func binarySlots(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.req.stream && !s.req.ndjson {
			n += s.frags
		}
	}
	return n
}

type clDelta struct{ failovers, errors, skew float64 }

// clusterDelta is the proxy's failovers and connection errors between two
// snapshots (from zero when b0 is nil), and the placement skew: the
// busiest backend's share of forwarded requests over the mean share.
func clusterDelta(b0, b1 []wire.BackendStats) clDelta {
	var d clDelta
	var total, most float64
	for i, b := range b1 {
		var a wire.BackendStats
		if b0 != nil {
			a = b0[i]
		}
		d.failovers += float64(b.Failovers - a.Failovers)
		d.errors += float64(b.Errors - a.Errors)
		n := float64(b.Requests + b.Streams - a.Requests - a.Streams)
		total += n
		most = max(most, n)
	}
	if total > 0 {
		d.skew = most / (total / float64(len(b1)))
	}
	return d
}

// print writes the ladder's rungs on the workload's path with their self
// times, and the gap between their sum and the client-observed median.
func (lad *ladder) print(w *os.File, sp *spec, p50, attributed float64) {
	fmt.Fprintf(w, "%s ladder (rung medians on the served path, innermost first):\n", sp.name)
	prev := 0.0
	for _, r := range lad.chain {
		fmt.Fprintf(w, "  %-28s %10.4f ms  self %10.4f ms\n", r, lad.med[r], lad.med[r]-prev)
		prev = lad.med[r]
	}
	if sp.rate > 0 {
		fmt.Fprintf(w, "  %-28s %10.4f ms  (isolated class probes in mixed-open's shares)\n", "class mix", lad.classMix)
	}
	gap := p50 - attributed
	fmt.Fprintf(w, "  %-28s %10.4f ms\n  %-28s %10.4f ms\n  %-28s %10.4f ms  (%.1f%% of p50)\n",
		"attributed (sum of self)", attributed, "client p50 (traced)", p50, "unattributed", gap, 100*gap/p50)
}
