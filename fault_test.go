package pops

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"pops/internal/popsnet"
)

// assertFaultFree replays plan's schedule on the fault-injected simulator and
// scans every send against the compiled fault set: full delivery of pi, zero
// dead-coupler use.
func assertFaultFree(t *testing.T, plan *Plan, pi []int, fs FaultSet) *popsnet.FaultyNetwork {
	t.Helper()
	fn, err := fs.Compile(plan.Net)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := popsnet.VerifyPermutationRoutedFaulty(plan.Schedule(), pi, fn); err != nil {
		t.Fatalf("fault replay: %v", err)
	}
	for i, slot := range plan.Schedule().Slots {
		for _, snd := range slot.Sends {
			if fn.Dead(snd.DestGroup, plan.Net.Group(snd.Src)) {
				t.Fatalf("slot %d drives dead coupler c(%d,%d)", i, snd.DestGroup, plan.Net.Group(snd.Src))
			}
		}
	}
	return fn
}

// TestPlanCacheFaultSetKeys pins the cache-identity contract of the fault
// workload: the fault set is part of the key (same pi under different faults
// must not collide), spellings of one fault set canonicalize onto one entry,
// and the empty set lives under its own key next to the plain permutation.
func TestPlanCacheFaultSetKeys(t *testing.T) {
	ctx := context.Background()
	const d, g = 3, 3
	p, err := NewPlanner(d, g, WithPlanCache(16))
	if err != nil {
		t.Fatal(err)
	}
	pi := RandomPermutation(d*g, rand.New(rand.NewSource(42)))
	fsA := FaultSet{Couplers: []Coupler{{B: 0, A: 1}}}
	fsB := FaultSet{Couplers: []Coupler{{B: 1, A: 0}}}

	planA, cached, err := p.ExecuteCached(ctx, FaultyPermutation(pi, fsA))
	if err != nil || cached {
		t.Fatalf("first faulty plan: cached=%v err=%v", cached, err)
	}
	assertFaultFree(t, planA, pi, fsA)

	// Same pi, different fault set: a distinct plan, never a cache hit.
	if _, ok := cachedWorkload(p, FaultyPermutation(pi, fsB)); ok {
		t.Fatal("fault set B hit fault set A's cache entry")
	}
	planB, cached, err := p.ExecuteCached(ctx, FaultyPermutation(pi, fsB))
	if err != nil || cached || planB == planA {
		t.Fatalf("fault set B: cached=%v same=%v err=%v", cached, planB == planA, err)
	}
	assertFaultFree(t, planB, pi, fsB)

	// Replays hit, and a non-canonical spelling (duplicates, unsorted) of
	// fsA resolves to the same entry: construction canonicalizes.
	got, cached, err := p.ExecuteCached(ctx, FaultyPermutation(pi, fsA))
	if err != nil || !cached || got != planA {
		t.Fatalf("fsA replay: cached=%v same=%v err=%v", cached, got == planA, err)
	}
	messy := FaultSet{Couplers: []Coupler{{B: 0, A: 1}, {B: 0, A: 1}}}
	got, cached, err = p.ExecuteCached(ctx, FaultyPermutation(pi, messy))
	if err != nil || !cached || got != planA {
		t.Fatalf("non-canonical spelling: cached=%v same=%v err=%v", cached, got == planA, err)
	}

	// The empty fault set delegates to the normal planner but is keyed as its
	// own workload: it neither hits nor pollutes the plain permutation entry.
	planPerm, cached, err := p.ExecuteCached(ctx, Permutation(pi))
	if err != nil || cached {
		t.Fatalf("plain permutation: cached=%v err=%v", cached, err)
	}
	if _, ok := cachedWorkload(p, FaultyPermutation(pi, FaultSet{})); ok {
		t.Fatal("empty-fault workload aliased the plain permutation entry")
	}
	planEmpty, cached, err := p.ExecuteCached(ctx, FaultyPermutation(pi, FaultSet{}))
	if err != nil || cached {
		t.Fatalf("empty-fault plan: cached=%v err=%v", cached, err)
	}
	schedulesEqual(t, planEmpty.Schedule(), planPerm.Schedule(), "empty-fault-vs-permutation")
	if planEmpty.Strategy != StrategyTheoremTwo {
		t.Fatalf("empty-fault strategy = %q, want %q", planEmpty.Strategy, StrategyTheoremTwo)
	}
}

// TestFaultyPermutationStream pins the streaming form: fault plans are
// materialized at admission and replayed as whole-slot fragments that
// reassemble the batch-identical schedule.
func TestFaultyPermutationStream(t *testing.T) {
	ctx := context.Background()
	const d, g = 2, 4
	p, err := NewPlanner(d, g)
	if err != nil {
		t.Fatal(err)
	}
	pi := RandomPermutation(d*g, rand.New(rand.NewSource(9)))
	fs := FaultSet{Couplers: []Coupler{{B: 2, A: 1}, {B: 0, A: 3}}}
	batch, err := p.Execute(ctx, FaultyPermutation(pi, fs))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := p.ExecuteStream(ctx, FaultyPermutation(pi, fs))
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.Strategy(); got != batch.Strategy {
		t.Fatalf("stream strategy = %q, want %q", got, batch.Strategy)
	}
	count := 0
	for {
		frag, ok := ps.Next()
		if !ok {
			break
		}
		if frag.Color != -1 || !frag.Final {
			t.Fatalf("fault stream fragment %+v is not a whole slot", frag)
		}
		count++
	}
	streamed, err := ps.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if count != batch.SlotCount() {
		t.Fatalf("stream emitted %d fragments, want %d whole slots", count, batch.SlotCount())
	}
	schedulesEqual(t, streamed.Schedule(), batch.Schedule(), "fault stream-vs-batch")
}

// TestMaterializedStreamsMemoize pins the cache policy of the two workloads
// planned whole rather than class by class: fault plans are memoized — also
// under WithVerify, and also when streamed and drained through Next — while
// one-to-all broadcasts never touch the cache.
func TestMaterializedStreamsMemoize(t *testing.T) {
	ctx := context.Background()
	const d, g = 2, 4
	p, err := NewPlanner(d, g, WithVerify(true), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	fs := FaultSet{Couplers: []Coupler{{B: 2, A: 1}}}
	batch := FaultyPermutation(RandomPermutation(d*g, rand.New(rand.NewSource(1))), fs)
	if _, err := p.Execute(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if _, ok := cachedWorkload(p, batch); !ok {
		t.Fatal("verified fault plan was not memoized by Execute")
	}
	streamed := FaultyPermutation(RandomPermutation(d*g, rand.New(rand.NewSource(2))), fs)
	ps, err := p.ExecuteStream(ctx, streamed)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := ps.Next(); !ok {
			break
		}
	}
	if _, ok := cachedWorkload(p, streamed); !ok {
		t.Fatal("Next-drained fault stream was not memoized")
	}

	before := p.CacheStats()
	for i := 0; i < 2; i++ {
		if _, cached, err := p.ExecuteCached(ctx, OneToAll(3)); err != nil || cached {
			t.Fatalf("broadcast %d: cached=%v err=%v", i, cached, err)
		}
	}
	if after := p.CacheStats(); after != before {
		t.Fatalf("broadcasts touched the plan cache: %+v, want %+v", after, before)
	}
}

// FuzzFaultyPermutation is the end-to-end property: for fuzzer-chosen shapes,
// permutations and fault sets, every plan must deliver pi on the
// fault-injected simulator without driving a dead coupler — or fail with the
// typed unroutable verdict — and an empty fault set must reproduce the normal
// Theorem 2 plan byte for byte.
func FuzzFaultyPermutation(f *testing.F) {
	f.Add(uint8(2), uint8(2), int64(1), uint64(0x8421), uint64(0))
	f.Add(uint8(3), uint8(4), int64(7), uint64(0xdeadbeefcafe), uint64(0))
	f.Add(uint8(1), uint8(5), int64(3), uint64(0x1085), uint64(0))
	f.Add(uint8(4), uint8(3), int64(11), uint64(0), uint64(0x1f2))
	f.Fuzz(func(t *testing.T, dSeed, gSeed uint8, seed int64, faultBits, groupBits uint64) {
		d := int(dSeed)%5 + 1
		g := int(gSeed)%5 + 1
		p, err := NewPlanner(d, g)
		if err != nil {
			t.Fatal(err)
		}
		pi := RandomPermutation(d*g, rand.New(rand.NewSource(seed)))
		// Two rotated copies ANDed give ~25% dead-coupler density from one
		// fuzzed word; a rare groupBits pattern adds a dead group, whose
		// plans must come back as typed unroutable verdicts.
		mask := faultBits & bits.RotateLeft64(faultBits, 17)
		var fs FaultSet
		for b := 0; b < g; b++ {
			for a := 0; a < g; a++ {
				if mask>>(uint(b*g+a)%64)&1 == 1 {
					fs.Couplers = append(fs.Couplers, Coupler{B: b, A: a})
				}
			}
		}
		deadGroup := groupBits&0xf == 0xf
		if deadGroup {
			fs.Groups = []int{int(groupBits>>4) % g}
		}

		plan, err := p.Execute(context.Background(), FaultyPermutation(pi, fs))
		if err != nil {
			var ue *UnroutableError
			if !errors.As(err, &ue) {
				t.Fatalf("POPS(%d,%d): %v", d, g, err)
			}
			if len(fs.Couplers) == 0 && !deadGroup {
				t.Fatal("unroutable verdict for an empty fault set")
			}
			return
		}
		if deadGroup {
			t.Fatalf("POPS(%d,%d): a dead group severs every permutation, but planning succeeded", d, g)
		}
		fn := assertFaultFree(t, plan, pi, fs)
		if fn.DeadCount() == 0 {
			want, err := p.Execute(context.Background(), Permutation(pi))
			if err != nil {
				t.Fatal(err)
			}
			schedulesEqual(t, plan.Schedule(), want.Schedule(), "empty-fault fuzz")
			if plan.Strategy != want.Strategy {
				t.Fatalf("empty-fault strategy = %q, want %q", plan.Strategy, want.Strategy)
			}
		} else if plan.Strategy != StrategyFaulty {
			t.Fatalf("fault plan strategy = %q, want %q", plan.Strategy, StrategyFaulty)
		}
	})
}

// seededFaults is the deterministic dead set the fault benchmarks and the
// slot-bound pin share: up to four distinct dead couplers drawn from rng.
func seededFaults(g int, rng *rand.Rand) FaultSet {
	k := 4
	if g < k {
		k = g
	}
	var fs FaultSet
	for i := 0; i < 4*k && len(fs.Canonical().Couplers) < k; i++ {
		fs.Couplers = append(fs.Couplers, Coupler{B: rng.Intn(g), A: rng.Intn(g)})
	}
	return fs.Canonical()
}

// faultRoundFloor is the structural lower bound on routing rounds under a
// fault set: a dead coupler c(b,a) removes relay b from every edge leaving
// group a and removes source a from every edge entering group b, so a group
// with only k alive out-relays (or in-relays) needs at least ceil(d/k)
// rounds for its d outgoing (incoming) packets no matter how they are
// colored. The floor is the max of that over all groups, and at least
// ceil(d/g) (the fault-free Theorem 2 round count).
func faultRoundFloor(d, g int, fs FaultSet) int {
	outDead := make([]int, g)
	inDead := make([]int, g)
	for _, c := range fs.Canonical().Couplers {
		outDead[c.A]++
		inDead[c.B]++
	}
	floor := (d + g - 1) / g
	for x := 0; x < g; x++ {
		for _, dead := range []int{outDead[x], inDead[x]} {
			if alive := g - dead; alive > 0 {
				if r := (d + alive - 1) / alive; r > floor {
					floor = r
				}
			}
		}
	}
	return floor
}

// TestFaultyPlanSlotBound pins the degradation budget on the benchmark
// shapes (the setting BENCH_2026-08-08_faults.json records): under the
// seeded dead sets, every repaired plan delivers within
//
//	max(OptimalSlots(d, g), 2*faultRoundFloor) + |groups touched|
//
// slots. For d <= g shapes the floor equals ceil(d/g) and this is the plain
// OptimalSlots + touched budget; for d >> g a dense dead column can leave a
// group a single alive relay, and the floor — not the fault-free optimum —
// is what any planner must pay (e.g. POPS(16,4) with 3 of group 3's 4
// transmit couplers dead forces 16 rounds; the repair hits that exactly).
func TestFaultyPlanSlotBound(t *testing.T) {
	ctx := context.Background()
	for _, s := range benchShapes() {
		rng := rand.New(rand.NewSource(int64(s.d*31 + s.g)))
		pi := RandomPermutation(s.d*s.g, rng)
		fs := seededFaults(s.g, rng)
		p, err := NewPlanner(s.d, s.g)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := p.Execute(ctx, FaultyPermutation(pi, fs))
		if err != nil {
			t.Fatalf("POPS(%d,%d): %v", s.d, s.g, err)
		}
		assertFaultFree(t, plan, pi, fs)
		touched := make(map[int]bool)
		for _, c := range fs.Couplers {
			touched[c.B] = true
			touched[c.A] = true
		}
		base := OptimalSlots(s.d, s.g)
		if fl := 2 * faultRoundFloor(s.d, s.g, fs); fl > base {
			base = fl
		}
		bound := base + len(touched)
		if plan.SlotCount() > bound {
			t.Errorf("POPS(%d,%d): %d slots exceeds the degradation bound %d (optimal %d, floor %d, %d groups touched)",
				s.d, s.g, plan.SlotCount(), bound, OptimalSlots(s.d, s.g), faultRoundFloor(s.d, s.g, fs), len(touched))
		}
		t.Logf("POPS(%d,%d): %d dead couplers, %d slots (optimal %d, round floor %d, bound %d)",
			s.d, s.g, len(fs.Couplers), plan.SlotCount(), OptimalSlots(s.d, s.g), faultRoundFloor(s.d, s.g, fs), bound)
	}
}
