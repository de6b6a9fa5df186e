package cluster

import (
	"math"
	"testing"

	"pops/internal/obs"
	"pops/internal/wire"
)

func buckets(counts ...uint64) []wire.LatencyBucket {
	out := make([]wire.LatencyBucket, len(counts))
	for i, c := range counts {
		le := uint64(1) << i
		if i == len(counts)-1 {
			le = 0 // unbounded overflow bucket
		}
		out[i] = wire.LatencyBucket{LEMicros: le, Count: c}
	}
	return out
}

// mergeBuckets, mergePlanTimes and sortPlanTimes drive obs.Merge through
// the wire schema's merge tags: the Latency field's bucket rule and the
// PlanTimes field's keyed rule.
func mergeBuckets(dst, src []wire.LatencyBucket) []wire.LatencyBucket {
	agg := wire.StatsResponse{Latency: dst}
	obs.Merge(&agg, &wire.StatsResponse{Latency: src})
	return agg.Latency
}

func mergePlanTimes(dst, src []wire.PlanTimeStat) []wire.PlanTimeStat {
	agg := wire.StatsResponse{PlanTimes: dst}
	obs.Merge(&agg, &wire.StatsResponse{PlanTimes: src})
	return agg.PlanTimes
}

func sortPlanTimes(pts []wire.PlanTimeStat) {
	copy(pts, mergePlanTimes(nil, pts))
}

func counts(bs []wire.LatencyBucket) []uint64 {
	out := make([]uint64, len(bs))
	for i, b := range bs {
		out[i] = b.Count
	}
	return out
}

func TestMergeBucketsSameSchema(t *testing.T) {
	dst := buckets(1, 2, 3, 0)
	src := buckets(4, 0, 1, 2)
	got := counts(mergeBuckets(dst, src))
	want := []uint64{5, 2, 4, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged counts = %v, want %v", got, want)
		}
	}
}

func TestMergeBucketsEmptyDst(t *testing.T) {
	src := buckets(1, 2, 3)
	got := mergeBuckets(nil, src)
	if len(got) != len(src) {
		t.Fatalf("merge into empty dst kept %d buckets, want %d", len(got), len(src))
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("merged[%d] = %+v, want %+v", i, got[i], src[i])
		}
	}
	// The copy must be independent: mutating the result cannot reach into
	// the source node's snapshot.
	got[0].Count = 99
	if src[0].Count == 99 {
		t.Fatal("merge aliased the source slice")
	}
}

func TestMergeBucketsEmptySrc(t *testing.T) {
	dst := buckets(1, 2, 3)
	got := counts(mergeBuckets(dst, nil))
	want := []uint64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge with empty src = %v, want unchanged %v", got, want)
		}
	}
}

// TestMergeBucketsMismatchedSchema covers a mid-upgrade fleet: a node
// emitting a coarser schema contributes every count to the closest dst
// bound instead of being dropped.
func TestMergeBucketsMismatchedSchema(t *testing.T) {
	dst := buckets(0, 0, 0, 0) // bounds 1, 2, 4, +Inf
	src := []wire.LatencyBucket{
		{LEMicros: 3, Count: 5},  // closest dst bound >= 3 is 4
		{LEMicros: 64, Count: 2}, // beyond every bounded dst bucket -> overflow
		{LEMicros: 0, Count: 7},  // unbounded -> overflow
	}
	got := counts(mergeBuckets(dst, src))
	want := []uint64{0, 0, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatched-schema merge = %v, want %v", got, want)
		}
	}
	var total uint64
	for _, c := range got {
		total += c
	}
	if total != 14 {
		t.Fatalf("merge dropped observations: total %d, want 14", total)
	}
}

func TestMergePlanTimes(t *testing.T) {
	dst := mergePlanTimes(nil, []wire.PlanTimeStat{
		{D: 4, G: 8, Strategy: "theorem2", Count: 3, CacheHits: 1, EWMAMicros: 100, SumMicros: 300, Buckets: buckets(3, 0)},
	})
	dst = mergePlanTimes(dst, []wire.PlanTimeStat{
		{D: 4, G: 8, Strategy: "theorem2", Count: 1, CacheHits: 2, EWMAMicros: 200, SumMicros: 180, Buckets: buckets(0, 1)},
		{D: 8, G: 8, Strategy: "greedy", Count: 2, EWMAMicros: 50, SumMicros: 90, Buckets: buckets(2, 0)},
	})
	if len(dst) != 2 {
		t.Fatalf("merged %d keys, want 2", len(dst))
	}
	var merged, fresh *wire.PlanTimeStat
	for i := range dst {
		if dst[i].Strategy == "theorem2" {
			merged = &dst[i]
		} else {
			fresh = &dst[i]
		}
	}
	if merged == nil || fresh == nil {
		t.Fatalf("keys missing from merge: %+v", dst)
	}
	if merged.Count != 4 || merged.CacheHits != 3 || merged.SumMicros != 480 {
		t.Errorf("merged totals = count %d hits %d sum %g, want 4/3/480", merged.Count, merged.CacheHits, merged.SumMicros)
	}
	// Count-weighted EWMA: (100*3 + 200*1) / 4 = 125.
	if math.Abs(merged.EWMAMicros-125) > 1e-9 {
		t.Errorf("merged EWMA = %g, want the count-weighted 125", merged.EWMAMicros)
	}
	if got := counts(merged.Buckets); got[0] != 3 || got[1] != 1 {
		t.Errorf("merged buckets = %v, want [3 1]", got)
	}
	if fresh.Count != 2 || fresh.EWMAMicros != 50 {
		t.Errorf("unmatched key mutated: %+v", fresh)
	}
}

func TestMergePlanTimesZeroCounts(t *testing.T) {
	// Two nodes that only ever answered this key from cache: merging must
	// not divide by the zero combined count.
	dst := mergePlanTimes(nil, []wire.PlanTimeStat{{D: 4, G: 4, Strategy: "theorem2", CacheHits: 5}})
	dst = mergePlanTimes(dst, []wire.PlanTimeStat{{D: 4, G: 4, Strategy: "theorem2", CacheHits: 2}})
	if len(dst) != 1 || dst[0].CacheHits != 7 || dst[0].Count != 0 {
		t.Fatalf("cache-only merge = %+v", dst)
	}
	if math.IsNaN(dst[0].EWMAMicros) {
		t.Fatal("zero-count merge produced a NaN EWMA")
	}
}

func TestSortPlanTimes(t *testing.T) {
	pts := []wire.PlanTimeStat{
		{D: 8, G: 8, Strategy: "theorem2"},
		{D: 4, G: 8, Strategy: "theorem2"},
		{D: 4, G: 8, Strategy: "greedy"},
		{D: 4, G: 4, Strategy: "theorem2"},
	}
	sortPlanTimes(pts)
	want := []wire.PlanTimeStat{
		{D: 4, G: 4, Strategy: "theorem2"},
		{D: 4, G: 8, Strategy: "greedy"},
		{D: 4, G: 8, Strategy: "theorem2"},
		{D: 8, G: 8, Strategy: "theorem2"},
	}
	for i := range want {
		if pts[i].D != want[i].D || pts[i].G != want[i].G || pts[i].Strategy != want[i].Strategy {
			t.Fatalf("sorted[%d] = (%d,%d,%s), want (%d,%d,%s)",
				i, pts[i].D, pts[i].G, pts[i].Strategy, want[i].D, want[i].G, want[i].Strategy)
		}
	}
}
