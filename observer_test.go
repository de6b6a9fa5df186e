package pops

import (
	"context"
	"sync"
	"testing"
	"time"

	"pops/internal/obs"
)

// recordingObserver captures ObservePlan calls for assertions.
type recordingObserver struct {
	mu  sync.Mutex
	obs []struct {
		strategy string
		cached   bool
		dur      time.Duration
	}
}

func (r *recordingObserver) ObservePlan(strategy string, cached bool, d time.Duration) {
	r.mu.Lock()
	r.obs = append(r.obs, struct {
		strategy string
		cached   bool
		dur      time.Duration
	}{strategy, cached, d})
	r.mu.Unlock()
}

func TestWithPlanObserver(t *testing.T) {
	ctx := context.Background()
	rec := &recordingObserver{}
	p, err := NewPlanner(4, 8, WithPlanCache(4), WithPlanObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	pi := VectorReversal(32)
	if _, err := p.Execute(ctx, Permutation(pi)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(ctx, Permutation(pi)); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.obs) != 2 {
		t.Fatalf("observer saw %d plans, want 2", len(rec.obs))
	}
	first, second := rec.obs[0], rec.obs[1]
	if first.cached || first.strategy != StrategyTheoremTwo {
		t.Errorf("first observation = %+v, want a fresh %s plan", first, StrategyTheoremTwo)
	}
	if !second.cached || second.strategy != StrategyTheoremTwo {
		t.Errorf("second observation = %+v, want a cache hit", second)
	}
	if first.dur <= 0 || second.dur <= 0 {
		t.Errorf("durations not measured: %v / %v", first.dur, second.dur)
	}
	// A hit costs a lookup, not a plan: it should be far cheaper.
	if second.dur > first.dur {
		t.Logf("note: hit (%v) slower than plan (%v) — scheduling noise, not asserted", second.dur, first.dur)
	}
}

// TestCachedHitSpanAllocBudget pins the acceptance budget of the tentpole:
// recording trace phases on the plan-cache-hit path must not allocate. The
// span and the workload value are reused across iterations the way the
// serving layer reuses them (pooled span, one boxed workload per request
// type), so any allocation here would be tracing overhead on every cached
// request.
func TestCachedHitSpanAllocBudget(t *testing.T) {
	p, err := NewPlanner(4, 8, WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	pi := VectorReversal(32)
	var w Workload = Permutation(pi)
	ctx := context.Background()
	if _, err := p.Execute(ctx, w); err != nil {
		t.Fatal(err) // warm the cache
	}
	sp := &obs.Span{}
	traced := obs.ContextWithSpan(ctx, sp)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Execute(traced, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("traced cache hit allocates %.1f objects/op, want 0", allocs)
	}
	if sp.Phase(obs.PhaseCache) <= 0 {
		t.Fatal("cache lookups recorded no cache-phase time on the span")
	}
}
