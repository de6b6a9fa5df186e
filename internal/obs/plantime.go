package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ewmaAlpha is the smoothing factor of the plan-time EWMA. 0.2 converges on
// a level shift in ~10 observations while riding out single-plan jitter —
// responsive enough for the service's Retry-After hint, which scales the
// EWMA by the queued batches, to follow a shape's current cost.
const ewmaAlpha = 0.2

type planKey struct {
	d, g     int
	strategy string
}

type planStat struct {
	count atomic.Uint64 // plans actually computed (cache misses)
	hits  atomic.Uint64 // plan-cache hits for this key
	ewma  atomic.Uint64 // math.Float64bits of the EWMA in nanoseconds
	hist  Histogram
}

// PlanTimes is the per-(d, g, strategy) table of measured planning time,
// exported on /stats and /metrics; the service's Retry-After hint reads its
// EWMA. Each key keeps an EWMA, a power-of-two histogram, and a cache-hit
// counter.
// Observe takes only an RLock and allocates nothing once a key exists; new
// keys appear at most once per (shape, strategy) pair for the process
// lifetime.
type PlanTimes struct {
	mu sync.RWMutex
	m  map[planKey]*planStat
}

// NewPlanTimes builds an empty table.
func NewPlanTimes() *PlanTimes {
	return &PlanTimes{m: make(map[planKey]*planStat)}
}

// Observe records one planning outcome for (d, g, strategy). Cache hits only
// bump the hit counter — the EWMA and histogram measure actual planning
// work, which is what a queued request waits for.
func (pt *PlanTimes) Observe(d, g int, strategy string, cached bool, dur time.Duration) {
	if pt == nil {
		return
	}
	k := planKey{d: d, g: g, strategy: strategy}
	pt.mu.RLock()
	st := pt.m[k]
	pt.mu.RUnlock()
	if st == nil {
		pt.mu.Lock()
		if st = pt.m[k]; st == nil {
			st = new(planStat)
			pt.m[k] = st
		}
		pt.mu.Unlock()
	}
	if cached {
		st.hits.Add(1)
		return
	}
	st.count.Add(1)
	st.hist.Observe(dur)
	x := float64(dur)
	for {
		old := st.ewma.Load()
		var next float64
		if old == 0 {
			next = x // first observation seeds the average
		} else {
			next = ewmaAlpha*x + (1-ewmaAlpha)*math.Float64frombits(old)
		}
		// Float64bits(next) is never 0 for dur > 0, so 0 stays "unset".
		if st.ewma.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// EWMA returns the current smoothed plan time for a key, or 0 if the key has
// never observed an actual plan.
func (pt *PlanTimes) EWMA(d, g int, strategy string) time.Duration {
	if pt == nil {
		return 0
	}
	pt.mu.RLock()
	st := pt.m[planKey{d: d, g: g, strategy: strategy}]
	pt.mu.RUnlock()
	if st == nil {
		return 0
	}
	bits := st.ewma.Load()
	if bits == 0 {
		return 0
	}
	return time.Duration(math.Float64frombits(bits))
}

// PlanTimeStat is one key's snapshot, exposed in /stats (wire.PlanTimeStat
// aliases this type) and rendered as labeled series on /metrics. Its tags
// declare those series and the fleet merge (see WriteMetrics and Merge).
type PlanTimeStat struct {
	D        int    `json:"d" label:"d"`
	G        int    `json:"g" label:"g"`
	Strategy string `json:"strategy" label:"strategy"`
	// Count is the number of plans actually computed; CacheHits the number
	// answered from the fingerprint plan cache instead.
	Count     uint64 `json:"count" merge:"sum"`
	CacheHits uint64 `json:"cache_hits,omitempty" merge:"sum" metric:"pops_plan_cache_hits_total,counter" help:"Plan-cache hits by shape and strategy."`
	// EWMAMicros is the smoothed plan time in microseconds; SumMicros the
	// total plan time across Count plans (the histogram's _sum on /metrics).
	EWMAMicros float64  `json:"ewma_us" merge:"ewma=Count" metric:"pops_plan_time_ewma_seconds,gauge" unit:"us" help:"EWMA of planning time by shape and strategy (alpha 0.2)."`
	SumMicros  float64  `json:"sum_us,omitempty" merge:"sum"`
	Buckets    []Bucket `json:"buckets" merge:"buckets" metric:"pops_plan_time_seconds,histogram" sum:"SumMicros" help:"Planning time by shape and strategy (cache hits excluded)."`
}

// Snapshot renders every key, sorted by (d, g, strategy) for stable output.
func (pt *PlanTimes) Snapshot() []PlanTimeStat {
	if pt == nil {
		return nil
	}
	pt.mu.RLock()
	keys := make([]planKey, 0, len(pt.m))
	stats := make([]*planStat, 0, len(pt.m))
	for k, st := range pt.m {
		keys = append(keys, k)
		stats = append(stats, st)
	}
	pt.mu.RUnlock()
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ka, kb := keys[order[a]], keys[order[b]]
		if ka.d != kb.d {
			return ka.d < kb.d
		}
		if ka.g != kb.g {
			return ka.g < kb.g
		}
		return ka.strategy < kb.strategy
	})
	out := make([]PlanTimeStat, 0, len(order))
	for _, i := range order {
		k, st := keys[i], stats[i]
		var ewmaUS float64
		if bits := st.ewma.Load(); bits != 0 {
			ewmaUS = math.Float64frombits(bits) / float64(time.Microsecond)
		}
		out = append(out, PlanTimeStat{
			D: k.d, G: k.g, Strategy: k.strategy,
			Count:      st.count.Load(),
			CacheHits:  st.hits.Load(),
			EWMAMicros: ewmaUS,
			SumMicros:  st.hist.SumMicros(),
			Buckets:    st.hist.Snapshot(),
		})
	}
	return out
}
