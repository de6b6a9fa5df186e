package pops

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pops/internal/core"
)

// randomRelation builds the union of h random permutations on n processors:
// a saturated h-relation with exactly h sends and receives per processor.
func randomRelation(n, h int, rng *rand.Rand) []Request {
	reqs := make([]Request, 0, n*h)
	for k := 0; k < h; k++ {
		for i, v := range RandomPermutation(n, rng) {
			reqs = append(reqs, Request{Src: i, Dst: v})
		}
	}
	return reqs
}

// schedulesEqual renders both schedules to their canonical text and fails
// with the diff when they diverge.
func schedulesEqual(t *testing.T, got, want *Schedule, context string) {
	t.Helper()
	var g, w bytes.Buffer
	if err := got.Format(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.Format(&w); err != nil {
		t.Fatal(err)
	}
	if g.String() != w.String() {
		t.Fatalf("%s: schedules diverge.\ngot:\n%s\nwant:\n%s", context, g.String(), w.String())
	}
}

// TestExecuteStreamHRelationEqualsPlanHRelation pins the h-relation side:
// Execute(HRelation(reqs)), ExecuteStream(HRelation(reqs)).Collect() and a
// fresh core planner's PlanHRelation produce slot-for-slot identical
// schedules, and the streamed fragments tile the schedule exactly.
func TestExecuteStreamHRelationEqualsPlanHRelation(t *testing.T) {
	ctx := context.Background()
	for _, s := range []struct{ d, g, h int }{{1, 4, 2}, {2, 2, 3}, {4, 4, 2}, {3, 5, 4}, {8, 2, 2}} {
		p, err := NewPlanner(s.d, s.g)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 3; seed++ {
			reqs := randomRelation(s.d*s.g, s.h, rand.New(rand.NewSource(seed)))
			pl, err := core.NewPlanner(s.d, s.g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			direct, err := pl.PlanHRelation(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := p.Execute(ctx, HRelation(reqs))
			if err != nil {
				t.Fatal(err)
			}
			ps, err := p.ExecuteStream(ctx, HRelation(reqs))
			if err != nil {
				t.Fatal(err)
			}
			var frags []StreamedSlot
			for {
				frag, ok := ps.Next()
				if !ok {
					break
				}
				frags = append(frags, frag)
			}
			if err := ps.Err(); err != nil {
				t.Fatal(err)
			}
			streamed, err := ps.Collect()
			if err != nil {
				t.Fatal(err)
			}

			if batch.H != s.h || streamed.H != s.h || direct.H != s.h {
				t.Fatalf("d=%d g=%d: degrees %d/%d/%d, want %d", s.d, s.g, batch.H, streamed.H, direct.H, s.h)
			}
			if !reflect.DeepEqual(batch.Factors, streamed.Factors) || !reflect.DeepEqual(batch.Factors, direct.Factors) {
				t.Fatalf("d=%d g=%d seed=%d: factor listings diverge", s.d, s.g, seed)
			}
			schedulesEqual(t, streamed.Schedule(), batch.Schedule(), "stream-vs-execute")
			schedulesEqual(t, batch.Schedule(), direct.Schedule(), "execute-vs-core")
			if _, err := streamed.Verify(); err != nil {
				t.Fatalf("d=%d g=%d seed=%d: %v", s.d, s.g, seed, err)
			}

			// Fragment contract: one whole slot per fragment, each slot
			// delivered exactly once, fragment count as promised.
			if len(frags) != ps.FragmentCount() || len(frags) != streamed.SlotCount() {
				t.Fatalf("%d fragments for %d slots (promised %d)", len(frags), streamed.SlotCount(), ps.FragmentCount())
			}
			seen := make([]bool, streamed.SlotCount())
			for _, frag := range frags {
				if !frag.Final || frag.Offset != 0 {
					t.Fatalf("fragment %+v is not a whole slot", frag)
				}
				if seen[frag.Slot] {
					t.Fatalf("slot %d delivered twice", frag.Slot)
				}
				seen[frag.Slot] = true
				if frag.Color < 0 || frag.Color >= s.h {
					t.Fatalf("fragment of slot %d carries factor %d outside [0,%d)", frag.Slot, frag.Color, s.h)
				}
			}
		}
	}
}

// TestExecuteHRelationQuick is the randomized property form over sparse
// relations (padding exercised) and all shapes.
func TestExecuteHRelationQuick(t *testing.T) {
	ctx := context.Background()
	f := func(dSeed, gSeed, mSeed uint8, seed int64) bool {
		d := int(dSeed)%4 + 1
		g := int(gSeed)%4 + 1
		n := d * g
		m := int(mSeed) % (2 * n)
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]Request, m)
		for i := range reqs {
			reqs[i] = Request{Src: rng.Intn(n), Dst: rng.Intn(n)}
		}
		p, err := NewPlanner(d, g)
		if err != nil {
			return false
		}
		batch, err := p.Execute(ctx, HRelation(reqs))
		if err != nil {
			return false
		}
		ps, err := p.ExecuteStream(ctx, HRelation(reqs))
		if err != nil {
			return false
		}
		streamed, err := ps.Collect()
		if err != nil {
			return false
		}
		var gb, wb bytes.Buffer
		if streamed.Schedule().Format(&gb) != nil || batch.Schedule().Format(&wb) != nil {
			return false
		}
		if gb.String() != wb.String() {
			return false
		}
		_, err = streamed.Verify()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzExecuteStreamHRelation is the native-fuzzer form: fuzzer-chosen
// shapes, degrees, backends and seeds must keep stream and batch h-relation
// planning byte-identical and deliverable.
func FuzzExecuteStreamHRelation(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(2), uint8(0), int64(1))
	f.Add(uint8(4), uint8(3), uint8(3), uint8(1), int64(7))
	f.Add(uint8(1), uint8(6), uint8(2), uint8(2), int64(3))
	f.Fuzz(func(t *testing.T, dSeed, gSeed, hSeed, algoSeed uint8, seed int64) {
		d := int(dSeed)%5 + 1
		g := int(gSeed)%5 + 1
		h := int(hSeed)%3 + 1
		algo := []Algorithm{RepeatedMatching, EulerSplitDC, Insertion}[int(algoSeed)%3]
		p, err := NewPlanner(d, g, WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		reqs := randomRelation(d*g, h, rand.New(rand.NewSource(seed)))
		batch, err := p.Execute(context.Background(), HRelation(reqs))
		if err != nil {
			t.Fatal(err)
		}
		ps, err := p.ExecuteStream(context.Background(), HRelation(reqs))
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := ps.Collect()
		if err != nil {
			t.Fatal(err)
		}
		schedulesEqual(t, streamed.Schedule(), batch.Schedule(), "fuzz stream-vs-batch")
		if _, err := streamed.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExecuteAllToAllMatchesPlanHRelationAndCaches pins the AllToAll
// workload to a core planner's PlanHRelation of the complete-exchange
// requests, and its plan-cache behavior: the exchange is fully determined by
// the shape, so a second Execute is a cache hit returning the same *Plan.
func TestExecuteAllToAllMatchesPlanHRelationAndCaches(t *testing.T) {
	ctx := context.Background()
	pl, err := core.NewPlanner(2, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pl.PlanHRelation(ctx, core.AllToAllRequests(2*3))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(2, 3, WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	first, cached, err := p.ExecuteCached(ctx, AllToAll())
	if err != nil || cached {
		t.Fatalf("first all-to-all: cached=%v err=%v", cached, err)
	}
	if first.H != 2*3-1 || first.Strategy != StrategyHRelation {
		t.Fatalf("all-to-all plan: h=%d strategy=%q", first.H, first.Strategy)
	}
	schedulesEqual(t, first.Schedule(), direct.Schedule(), "all-to-all-vs-core")
	second, cached, err := p.ExecuteCached(ctx, AllToAll())
	if err != nil || !cached || second != first {
		t.Fatalf("second all-to-all: cached=%v same=%v err=%v", cached, second == first, err)
	}
	if _, err := first.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteHRelationCacheRoundTrip pins the workload plan cache: a
// streamed h-relation is memoized on completion, a repeated Execute hits it,
// and the replay stream reports Cached with whole-slot fragments.
func TestExecuteHRelationCacheRoundTrip(t *testing.T) {
	ctx := context.Background()
	const d, g, h = 2, 4, 2
	p, err := NewPlanner(d, g, WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	reqs := randomRelation(d*g, h, rand.New(rand.NewSource(5)))

	ps, err := p.ExecuteStream(ctx, HRelation(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if ps.Cached() {
		t.Fatal("first stream claims a cache hit")
	}
	plan, err := ps.Collect()
	if err != nil {
		t.Fatal(err)
	}
	got, cached, err := p.ExecuteCached(ctx, HRelation(reqs))
	if err != nil || !cached || got != plan {
		t.Fatalf("execute after stream: cached=%v same=%v err=%v", cached, got == plan, err)
	}

	replay, err := p.ExecuteStream(ctx, HRelation(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Cached() {
		t.Fatal("replay stream missed the cache")
	}
	count := 0
	for {
		frag, ok := replay.Next()
		if !ok {
			break
		}
		if frag.Color != -1 || !frag.Final {
			t.Fatalf("replay fragment %+v is not a whole slot", frag)
		}
		count++
	}
	if count != plan.SlotCount() {
		t.Fatalf("replay emitted %d fragments, want %d", count, plan.SlotCount())
	}

	// A permutation with the same flattened content must not alias the
	// h-relation entry: kinds are part of the cache identity.
	if _, ok := p.CachedWorkload(Permutation(flattenRequests(reqs))); ok {
		t.Fatal("permutation workload hit the h-relation cache entry")
	}
}

// TestWorkloadFingerprint pins the key contract: permutation workloads keep
// the raw PermutationFingerprint, and the other kinds are salted apart.
func TestWorkloadFingerprint(t *testing.T) {
	pi := []int{2, 0, 1, 3}
	if WorkloadFingerprint(Permutation(pi)) != PermutationFingerprint(pi) {
		t.Fatal("permutation workload fingerprint diverges from PermutationFingerprint")
	}
	reqs := []Request{{Src: 2, Dst: 0}, {Src: 1, Dst: 3}}
	flat := flattenRequests(reqs)
	if WorkloadFingerprint(HRelation(reqs)) == PermutationFingerprint(flat) {
		t.Fatal("h-relation fingerprint collides with the flattened permutation fingerprint")
	}
	if WorkloadFingerprint(AllToAll()) == WorkloadFingerprint(OneToAll(0)) {
		t.Fatal("all-to-all and one-to-all fingerprints collide")
	}
}

// TestExecuteCancelledContext is the regression test for the context
// contract: an already-cancelled context returns ctx.Err() before any
// validation or planning — even for workloads that could never plan — and
// before a worker planner is acquired.
func TestExecuteCancelledContext(t *testing.T) {
	p, err := NewPlanner(4, 4, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	// An invalid permutation would fail validation — ctx.Err() coming back
	// instead proves the context gate runs first, before any worker is
	// checked out or any planning state touched.
	badPi := []int{0, 0, 0}
	if _, err := p.Execute(ctx, Permutation(badPi)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := p.ExecuteStream(ctx, Permutation(badPi)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteStream on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := p.Execute(ctx, HRelation([]Request{{Src: 0, Dst: 99}})); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute(HRelation) on cancelled ctx = %v, want context.Canceled", err)
	}
	if len(p.free) != 0 {
		t.Fatalf("cancelled calls parked %d workers in the free list; none should have been acquired", len(p.free))
	}

	// The planner must remain fully usable afterwards.
	plan, err := p.Execute(context.Background(), Permutation(RandomPermutation(16, rand.New(rand.NewSource(1)))))
	if err != nil || plan.SlotCount() != OptimalSlots(4, 4) {
		t.Fatalf("planner unusable after cancelled calls: %v", err)
	}
}

// TestExecuteStreamCancelMidStream is the streaming half of the context
// regression: cancelling mid-stream stops factor production, surfaces
// ctx.Err() through Err, and returns the pooled worker without Close.
func TestExecuteStreamCancelMidStream(t *testing.T) {
	const d, g, h = 4, 4, 3
	p, err := NewPlanner(d, g, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	reqs := randomRelation(d*g, h, rand.New(rand.NewSource(11)))

	for _, tc := range []struct {
		name string
		w    Workload
	}{
		{"hrelation", HRelation(reqs)},
		{"permutation", Permutation(RandomPermutation(d*g, rand.New(rand.NewSource(3))))},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		ps, err := p.ExecuteStream(ctx, tc.w)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, ok := ps.Next(); !ok {
			t.Fatalf("%s: no first fragment", tc.name)
		}
		cancel() // stop factor production mid-stream
		for {
			if _, ok := ps.Next(); !ok {
				break
			}
		}
		if err := ps.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Err() after cancel = %v, want context.Canceled", tc.name, err)
		}
		if got := len(p.free); got != 1 {
			t.Fatalf("%s: free list holds %d workers after cancellation, want 1 (worker returned)", tc.name, got)
		}
		if _, err := ps.Collect(); err == nil {
			t.Fatalf("%s: Collect on a cancelled stream succeeded", tc.name)
		}
		ps.Close() // must stay idempotent after the error path released the worker
		if got := len(p.free); got != 1 {
			t.Fatalf("%s: Close after cancellation corrupted the free list (%d workers)", tc.name, got)
		}
	}
	// The recycled worker must still plan correctly after cancellations.
	if _, err := p.Execute(context.Background(), HRelation(reqs)); err != nil {
		t.Fatal(err)
	}
}

// TestHRelationPooledAllocBudget is the alloc-guard half of moving
// h-relations onto the pooled planners: steady-state Execute on a warmed
// planner must allocate well under half of what a fresh planner per call
// costs (NewPlanner + Execute rebuilds planner, arenas and demand graph
// every call).
func TestHRelationPooledAllocBudget(t *testing.T) {
	const d, g, h = 4, 8, 3
	p, err := NewPlanner(d, g, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	reqs := randomRelation(d*g, h, rand.New(rand.NewSource(23)))
	ctx := context.Background()
	if _, err := p.Execute(ctx, HRelation(reqs)); err != nil { // warm arenas
		t.Fatal(err)
	}
	pooled := testing.AllocsPerRun(10, func() {
		if _, err := p.Execute(ctx, HRelation(reqs)); err != nil {
			t.Fatal(err)
		}
	})
	perCall := testing.AllocsPerRun(10, func() {
		fresh, err := NewPlanner(d, g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Execute(ctx, HRelation(reqs)); err != nil {
			t.Fatal(err)
		}
	})
	if pooled*2 >= perCall {
		t.Errorf("pooled h-relation allocates %.0f/op vs per-call %.0f/op; want < half", pooled, perCall)
	}
	t.Logf("h-relation allocs/op: pooled %.0f vs per-call %.0f", pooled, perCall)
}
