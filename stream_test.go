package pops

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"pops/internal/popsnet"
)

// collectStream fully drains a stream via Next and returns copies of its
// fragments: a fragment is only valid until the next Next call.
func collectStream(t *testing.T, ps *PlanStream) []StreamedSlot {
	t.Helper()
	var frags []StreamedSlot
	for {
		frag, ok := ps.Next()
		if !ok {
			break
		}
		frag.Sends, frag.Recvs = slices.Clone(frag.Sends), slices.Clone(frag.Recvs)
		frags = append(frags, frag)
	}
	if err := ps.Err(); err != nil {
		t.Fatal(err)
	}
	return frags
}

// plansEqual compares two plans field by field, schedules rendered to their
// canonical text so a divergence prints usefully.
func plansEqual(t *testing.T, got, want *Plan, context string) {
	t.Helper()
	if !reflect.DeepEqual(got.Pi, want.Pi) || !reflect.DeepEqual(got.Colors, want.Colors) ||
		got.Rounds != want.Rounds || got.Strategy != want.Strategy || got.Net != want.Net {
		t.Fatalf("%s: plan metadata diverges", context)
	}
	var g, w bytes.Buffer
	if err := got.Schedule().Format(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.Schedule().Format(&w); err != nil {
		t.Fatal(err)
	}
	if g.String() != w.String() {
		t.Fatalf("%s: schedules diverge.\nstream:\n%s\nroute:\n%s", context, g.String(), w.String())
	}
}

// TestRouteStreamCollectEqualsRoute checks the public plumbing around the
// one Theorem 2 construction: for every shape and seed,
// ExecuteStream(Permutation(pi)).Collect() and a Next drain are
// slot-for-slot identical to Execute(Permutation(pi)). The construction
// itself is held to an independent reference in internal/core.
func TestRouteStreamCollectEqualsRoute(t *testing.T) {
	ctx := context.Background()
	for _, s := range []struct{ d, g int }{{1, 5}, {2, 2}, {3, 3}, {2, 8}, {8, 4}, {4, 16}, {12, 8}} {
		p, err := NewPlanner(s.d, s.g)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 4; seed++ {
			pi := RandomPermutation(s.d*s.g, rand.New(rand.NewSource(seed)))
			want, err := p.Execute(ctx, Permutation(pi))
			if err != nil {
				t.Fatal(err)
			}
			ps, err := p.ExecuteStream(ctx, Permutation(pi))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ps.Collect()
			if err != nil {
				t.Fatal(err)
			}
			plansEqual(t, got, want, "collect-vs-execute")

			// Draining fragment by fragment then reading the plan must give
			// the same result as Collect.
			ps2, err := p.ExecuteStream(ctx, Permutation(pi))
			if err != nil {
				t.Fatal(err)
			}
			frags := collectStream(t, ps2)
			if len(frags) != ps2.FragmentCount() {
				t.Fatalf("d=%d g=%d: %d fragments, want %d", s.d, s.g, len(frags), ps2.FragmentCount())
			}
			got2, err := ps2.Collect()
			if err != nil {
				t.Fatal(err)
			}
			plansEqual(t, got2, want, "drain-vs-execute")
		}
	}
}

// TestBalancedShapesAllBackends covers the d < g shapes whose class size d
// does not divide g, where the balanced coloring has to swap alternating
// paths: on every backend the plan takes OptimalSlots, replays on the
// simulator with every packet delivered, and ExecuteStream+Collect equals
// Execute.
func TestBalancedShapesAllBackends(t *testing.T) {
	ctx := context.Background()
	for _, algo := range []Algorithm{RepeatedMatching, EulerSplitDC, Insertion} {
		for _, s := range []struct{ d, g int }{{3, 8}, {5, 7}, {6, 9}, {12, 64}} {
			p, err := NewPlanner(s.d, s.g, WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 3; seed++ {
				pi := RandomPermutation(s.d*s.g, rand.New(rand.NewSource(seed)))
				name := fmt.Sprintf("%v d=%d g=%d seed=%d", algo, s.d, s.g, seed)
				want, err := p.Execute(ctx, Permutation(pi))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if want.SlotCount() != OptimalSlots(s.d, s.g) {
					t.Fatalf("%s: %d slots, want %d", name, want.SlotCount(), OptimalSlots(s.d, s.g))
				}
				if _, err := popsnet.VerifyPermutationRouted(want.Schedule(), pi); err != nil {
					t.Fatalf("%s: replay: %v", name, err)
				}
				ps, err := p.ExecuteStream(ctx, Permutation(pi))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := ps.Collect()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				plansEqual(t, got, want, name)
			}
		}
	}
}

// TestRouteStreamCollectEqualsRouteQuick is the randomized property form:
// random (d, g, pi) triples, one planner cache across permutations.
func TestRouteStreamCollectEqualsRouteQuick(t *testing.T) {
	ctx := context.Background()
	f := func(dSeed, gSeed uint8, seed int64) bool {
		d := int(dSeed)%8 + 1
		g := int(gSeed)%8 + 1
		p, err := NewPlanner(d, g)
		if err != nil {
			return false
		}
		pi := RandomPermutation(d*g, rand.New(rand.NewSource(seed)))
		want, err := p.Execute(ctx, Permutation(pi))
		if err != nil {
			return false
		}
		ps, err := p.ExecuteStream(ctx, Permutation(pi))
		if err != nil {
			return false
		}
		got, err := ps.Collect()
		if err != nil {
			return false
		}
		var gb, wb bytes.Buffer
		if got.Schedule().Format(&gb) != nil || want.Schedule().Format(&wb) != nil {
			return false
		}
		return gb.String() == wb.String() &&
			reflect.DeepEqual(got.Colors, want.Colors) && reflect.DeepEqual(got.Pi, want.Pi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRouteStreamCollect is the native-fuzzer form of the plumbing
// property: for fuzzer-chosen shapes, backends and permutation seeds,
// ExecuteStream's Collect must reproduce Execute slot for slot.
func FuzzRouteStreamCollect(f *testing.F) {
	ctx := context.Background()
	f.Add(uint8(2), uint8(4), uint8(0), int64(1))
	f.Add(uint8(4), uint8(2), uint8(1), int64(2))
	f.Add(uint8(1), uint8(6), uint8(0), int64(3))
	f.Add(uint8(3), uint8(3), uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, dSeed, gSeed, algoSeed uint8, seed int64) {
		d := int(dSeed)%8 + 1
		g := int(gSeed)%8 + 1
		algo := []Algorithm{RepeatedMatching, EulerSplitDC, Insertion}[int(algoSeed)%3]
		p, err := NewPlanner(d, g, WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		pi := RandomPermutation(d*g, rand.New(rand.NewSource(seed)))
		want, err := p.Execute(ctx, Permutation(pi))
		if err != nil {
			t.Fatal(err)
		}
		ps, err := p.ExecuteStream(ctx, Permutation(pi))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ps.Collect()
		if err != nil {
			t.Fatal(err)
		}
		plansEqual(t, got, want, fmt.Sprintf("fuzz d=%d g=%d algo=%v", d, g, algo))
	})
}

// TestRouteStreamConcurrentWithRoute interleaves a slow fragment-by-fragment
// stream consumer with concurrent Execute and ExecuteStream traffic on the
// same Planner, under -race in CI. Results must be independent.
func TestRouteStreamConcurrentWithRoute(t *testing.T) {
	ctx := context.Background()
	const d, g = 6, 8
	p, err := NewPlanner(d, g, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	streamPi := RandomPermutation(d*g, rng)
	want, err := p.Execute(ctx, Permutation(streamPi))
	if err != nil {
		t.Fatal(err)
	}

	ps, err := p.ExecuteStream(ctx, Permutation(streamPi))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		pi := RandomPermutation(d*g, rand.New(rand.NewSource(int64(100+w))))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				plan, err := p.Execute(ctx, Permutation(pi))
				if err != nil {
					t.Errorf("concurrent route: %v", err)
					return
				}
				if plan.SlotCount() != OptimalSlots(d, g) {
					t.Errorf("concurrent route: %d slots", plan.SlotCount())
					return
				}
			}
		}()
	}
	// Consume the stream while the routers hammer the planner.
	frags := 0
	for {
		_, ok := ps.Next()
		if !ok {
			break
		}
		frags++
	}
	if err := ps.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := ps.Collect()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	plansEqual(t, got, want, "stream-under-concurrency")
	if frags != ps.FragmentCount() {
		t.Fatalf("stream emitted %d of %d fragments", frags, ps.FragmentCount())
	}
}

// TestRouteStreamCacheHit pins the cache short-circuit: a second stream of
// the same permutation replays the memoized plan (whole-slot fragments, no
// replanning) and reports Cached.
func TestRouteStreamCacheHit(t *testing.T) {
	ctx := context.Background()
	const d, g = 4, 8
	p, err := NewPlanner(d, g, WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	pi := VectorReversal(d * g)
	ps, err := p.ExecuteStream(ctx, Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	if ps.Cached() {
		t.Fatal("first stream claims a cache hit")
	}
	first, err := ps.Collect()
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := p.ExecuteStream(ctx, Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	if !ps2.Cached() {
		t.Fatal("second stream missed the cache")
	}
	frags := collectStream(t, ps2)
	if len(frags) != first.SlotCount() {
		t.Fatalf("cached stream emitted %d fragments, want %d whole slots", len(frags), first.SlotCount())
	}
	for i, frag := range frags {
		if frag.Slot != i || !frag.Final || frag.Color != -1 {
			t.Fatalf("cached fragment %d = %+v, want whole slot %d", i, frag, i)
		}
	}
	second, err := ps2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("cached stream did not return the memoized plan pointer")
	}
	// A stream-built plan must also serve Execute hits.
	if _, ok := cachedWorkload(p, Permutation(pi)); !ok {
		t.Fatal("collected stream plan was not memoized")
	}
}

// TestRouteStreamVerifyOnDrainedCollect pins the WithVerify contract on
// the Next-drain path: the plan is not memoized while unverified, and the
// Collect that follows the drain replays the schedule and then caches it.
func TestRouteStreamVerifyOnDrainedCollect(t *testing.T) {
	const d, g = 4, 8
	p, err := NewPlanner(d, g, WithVerify(true), WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	pi := VectorReversal(d * g)
	ps, err := p.ExecuteStream(context.Background(), Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	collectStream(t, ps) // drain via Next: no verification has run yet
	if _, ok := cachedWorkload(p, Permutation(pi)); ok {
		t.Fatal("unverified drained plan was memoized under WithVerify")
	}
	plan, err := ps.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("no plan from post-drain Collect")
	}
	if _, ok := cachedWorkload(p, Permutation(pi)); !ok {
		t.Fatal("verified plan was not memoized after Collect")
	}
}

// TestRouteStreamCloseReleasesWorker pins the ownership contract: an
// abandoned stream returns its worker planner to the free list, so a
// single-worker planner stays usable.
func TestRouteStreamCloseReleasesWorker(t *testing.T) {
	ctx := context.Background()
	const d, g = 4, 4
	p, err := NewPlanner(d, g, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	pi := RandomPermutation(d*g, rand.New(rand.NewSource(13)))
	for i := 0; i < 3; i++ {
		ps, err := p.ExecuteStream(ctx, Permutation(pi))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ps.Next(); !ok {
			t.Fatal("no first fragment")
		}
		ps.Close() // abandon mid-stream
		if _, ok := ps.Next(); ok {
			t.Fatal("closed stream still yields fragments")
		}
		// Collect on an abandoned stream must refuse: its worker is back in
		// the pool and may already be planning for someone else.
		if plan, err := ps.Collect(); err == nil || plan != nil {
			t.Fatalf("Collect after Close returned (%v, %v), want error", plan, err)
		}
	}
	if len(p.free) != 1 {
		t.Fatalf("free list holds %d workers after closes, want 1", len(p.free))
	}
	// The recycled worker must still plan correctly.
	plan, err := p.Execute(ctx, Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	if plan.SlotCount() != OptimalSlots(d, g) {
		t.Fatalf("recycled worker produced %d slots", plan.SlotCount())
	}
}

// TestExecuteStreamAllocBudget pins the cold allocation cost of the one
// planning path. Execute is ExecuteStream collected, so on a warmed
// cache-free POPS(8,8) planner its steady state is exactly the stream's: the
// plan's own storage (permutation snapshot, colors, the Plan) plus the
// public, core and edgecolor stream handles — 6 allocs/op. Collect writes
// no slot, so any schedule storage fails it. ExecuteStream+Collect must
// never cost more than Execute.
func TestExecuteStreamAllocBudget(t *testing.T) {
	ctx := context.Background()
	const d, g = 8, 8
	const executeBudget = 6
	p, err := NewPlanner(d, g, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	w := Permutation(RandomPermutation(d*g, rand.New(rand.NewSource(17))))
	drain := func() {
		ps, err := p.ExecuteStream(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ps.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	drain() // warm the worker free list
	execute := testing.AllocsPerRun(20, func() {
		if _, err := p.Execute(ctx, w); err != nil {
			t.Fatal(err)
		}
	})
	stream := testing.AllocsPerRun(20, drain)
	if execute > executeBudget {
		t.Errorf("Execute allocates %.1f/op cold at POPS(%d,%d), budget %d", execute, d, g, executeBudget)
	}
	if stream > execute {
		t.Errorf("ExecuteStream+Collect allocates %.1f/op vs Execute's %.1f/op", stream, execute)
	}
	t.Logf("allocs/op: ExecuteStream+Collect %.1f, Execute %.1f", stream, execute)
}
