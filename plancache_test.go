package pops

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// cachedWorkload reports whether w's plan is memoized on p, a planner built
// with WithPlanCache, returning it on a verified hit. The lookup counts toward
// CacheStats like any other.
func cachedWorkload(p *Planner, w Workload) (*Plan, bool) {
	key, kind := workloadKey(w)
	return p.cache.get(key, kind, w)
}

func TestPlanCacheHitsRepeatedPermutation(t *testing.T) {
	ctx := context.Background()
	p, err := NewPlanner(4, 8, WithPlanCache(16))
	if err != nil {
		t.Fatal(err)
	}
	pi := VectorReversal(32)
	first, err := p.Execute(ctx, Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Execute(ctx, Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("repeated permutation was replanned instead of served from the cache")
	}
	// A copy of the permutation hits too: the key is content, not identity.
	third, err := p.Execute(ctx, Permutation(append([]int(nil), pi...)))
	if err != nil {
		t.Fatal(err)
	}
	if third != first {
		t.Fatal("copied permutation missed the cache")
	}
	stats := p.CacheStats()
	if stats.Hits != 2 || stats.Misses != 1 || stats.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 1 miss, 1 entry", stats)
	}
	if _, err := second.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheHitIsAllocFree pins the point of consulting the cache before
// checking out a worker planner: a hit costs a fingerprint walk and a map
// lookup, no planner (or arena) allocation.
func TestPlanCacheHitIsAllocFree(t *testing.T) {
	ctx := context.Background()
	p, err := NewPlanner(4, 8, WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	w := Permutation(VectorReversal(32))
	if _, err := p.Execute(ctx, w); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Execute(ctx, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("cache hit allocates %.0f objects/op, want 0", allocs)
	}
}

func TestPlanCacheEvictsLRU(t *testing.T) {
	ctx := context.Background()
	p, err := NewPlanner(2, 4, WithPlanCache(2))
	if err != nil {
		t.Fatal(err)
	}
	a := IdentityPermutation(8)
	b := VectorReversal(8)
	c, err := MeshShift(2, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range [][]int{a, b} {
		if _, err := p.Execute(ctx, Permutation(pi)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b becomes the LRU entry, then insert c to evict b.
	if _, err := p.Execute(ctx, Permutation(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(ctx, Permutation(c)); err != nil {
		t.Fatal(err)
	}
	if _, ok := cachedWorkload(p, Permutation(a)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := cachedWorkload(p, Permutation(b)); ok {
		t.Fatal("LRU entry survived past capacity")
	}
	stats := p.CacheStats()
	if stats.Evictions != 1 || stats.Entries != 2 || stats.Capacity != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries, capacity 2", stats)
	}
}

func TestPlanCacheConcurrentRouteIsRaceFreeAndCorrect(t *testing.T) {
	const d, g = 4, 4
	p, err := NewPlanner(d, g, WithPlanCache(8), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pis := make([][]int, 4)
	for i := range pis {
		pis[i] = RandomPermutation(d*g, rng)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				pi := pis[(seed+iter)%len(pis)]
				plan, err := p.Execute(context.Background(), Permutation(pi))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(plan.Pi, pi) {
					t.Error("cache returned a plan for the wrong permutation")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stats := p.CacheStats()
	if stats.Hits+stats.Misses != 200 {
		t.Fatalf("lookups = %d, want 200", stats.Hits+stats.Misses)
	}
	if stats.Hits == 0 {
		t.Fatal("no cache hits across 200 routes of 4 permutations")
	}
}

func TestRouteBatchContextsReportsAttribution(t *testing.T) {
	p, err := NewPlanner(4, 4, WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	pi := VectorReversal(16)
	other := IdentityPermutation(16)
	plans, cached, err := p.RouteBatchContexts(nil, [][]int{pi, other})
	if err != nil {
		t.Fatal(err)
	}
	if cached[0] || cached[1] {
		t.Fatalf("cold batch reported cache hits: %v", cached)
	}
	plans2, cached2, err := p.RouteBatchContexts(nil, [][]int{pi, other})
	if err != nil {
		t.Fatal(err)
	}
	if !cached2[0] || !cached2[1] {
		t.Fatalf("warm batch missed the cache: %v", cached2)
	}
	if plans2[0] != plans[0] || plans2[1] != plans[1] {
		t.Fatal("warm batch returned different plan pointers")
	}
}

func TestCacheStatsZeroWithoutOption(t *testing.T) {
	p, err := NewPlanner(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(context.Background(), Permutation(IdentityPermutation(4))); err != nil {
		t.Fatal(err)
	}
	if got := p.CacheStats(); got != (CacheStats{}) {
		t.Fatalf("CacheStats without WithPlanCache = %+v, want zero", got)
	}
}

// TestCachedPlanRetainedBytes pins what a cached plan keeps alive. A plan
// is its coloring and stores no slots: a (16,64) permutation plan retains π
// and the colors, ≤ 17 B per packet, and a (16,16) 4-relation plan its
// requests, factor listings and packed colors, ≤ 32 B per packet with its
// cache entry. 128 plans are executed into a plan cache and the heap is
// measured after GC; the workloads and the planner's arenas exist before
// the first measurement.
func TestCachedPlanRetainedBytes(t *testing.T) {
	const plans = 128
	rng := rand.New(rand.NewSource(11))
	relation := func(n, h int) Workload {
		var reqs []Request
		for range h {
			for src, dst := range rng.Perm(n) {
				reqs = append(reqs, Request{Src: src, Dst: dst})
			}
		}
		return HRelation(reqs)
	}
	for _, c := range []struct {
		name    string
		d, g    int
		packets int
		budget  float64 // retained bytes per packet
		gen     func() Workload
	}{
		{"(16,64) permutation", 16, 64, 16 * 64, 17, func() Workload { return Permutation(RandomPermutation(16*64, rng)) }},
		{"(16,16) 4-relation", 16, 16, 4 * 16 * 16, 32, func() Workload { return relation(16*16, 4) }},
	} {
		p, err := NewPlanner(c.d, c.g, WithParallelism(1), WithPlanCache(plans+1))
		if err != nil {
			t.Fatal(err)
		}
		ws := make([]Workload, plans+1)
		for i := range ws {
			ws[i] = c.gen()
		}
		ctx := context.Background()
		if _, err := p.Execute(ctx, ws[0]); err != nil { // warm the worker's arenas
			t.Fatal(err)
		}
		heap := func() uint64 {
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		before := heap()
		for _, w := range ws[1:] {
			if _, err := p.Execute(ctx, w); err != nil {
				t.Fatal(err)
			}
		}
		after := heap()
		runtime.KeepAlive(ws)
		if got := p.CacheStats().Entries; got != plans+1 {
			t.Fatalf("%s: %d cache entries, want %d", c.name, got, plans+1)
		}
		perPacket := float64(int64(after)-int64(before)) / plans / float64(c.packets)
		t.Logf("%s: %.0f B retained per cached plan, %.1f B per packet", c.name, perPacket*float64(c.packets), perPacket)
		if perPacket > c.budget {
			t.Errorf("%s: %.1f B retained per packet, budget %.0f", c.name, perPacket, c.budget)
		}
	}
}
