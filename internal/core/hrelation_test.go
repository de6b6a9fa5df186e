package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"pops/internal/edgecolor"
	"pops/internal/perms"
	"pops/internal/popsnet"
)

// planHRelation plans reqs on a fresh POPS(d, g) planner with default
// options.
func planHRelation(d, g int, reqs []Request) (*Plan, error) {
	pl, err := NewPlanner(d, g, Options{})
	if err != nil {
		return nil, err
	}
	return pl.PlanHRelation(context.Background(), reqs)
}

// randomHRelation is the union of h random permutations: exactly h sends
// and receives per processor.
func randomHRelation(n, h int, rng *rand.Rand) []Request {
	var reqs []Request
	for k := 0; k < h; k++ {
		for i, v := range perms.Random(n, rng) {
			reqs = append(reqs, Request{Src: i, Dst: v})
		}
	}
	return reqs
}

// paddedRelation keeps a random nonempty part of reqs, in shuffled order,
// so that planning it usually needs dummy requests. It reorders reqs.
func paddedRelation(reqs []Request, rng *rand.Rand) []Request {
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs[:1+rng.Intn(len(reqs))]
}

// checkHRelationMatchesReference plans reqs on POPS(d, g) with algo twice on
// one planner, collected and then streamed, and holds both to
// referenceHRelation: equal Factors, codes and schedules (the streamed one
// reassembled from its fragments), the same popsnet delivery trace, and
// factor k's slots carrying exactly the real requests Factors[k] lists.
func checkHRelationMatchesReference(t testing.TB, d, g int, algo edgecolor.Algorithm, reqs []Request) {
	t.Helper()
	name := fmt.Sprintf("POPS(%d,%d) %v, %d requests", d, g, algo, len(reqs))
	pl, err := NewPlanner(d, g, Options{Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	refPl, err := NewPlanner(d, g, Options{Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceHRelation(t, refPl, reqs)
	want := ref.Schedule()
	ctx := context.Background()
	collected, err := pl.PlanHRelation(ctx, reqs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ps, err := pl.StartHRelation(ctx, reqs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	streamed := &popsnet.Schedule{Net: pl.nw, Slots: make([]popsnet.Slot, ps.SlotCount())}
	for {
		frag, ok := ps.Next()
		if !ok {
			break
		}
		streamed.Slots[frag.Slot] = popsnet.Slot{Sends: slices.Clone(frag.Sends), Recvs: slices.Clone(frag.Recvs)}
	}
	if err := ps.Err(); err != nil {
		t.Fatalf("%s: stream: %v", name, err)
	}
	if !reflect.DeepEqual(streamed, want) {
		t.Fatalf("%s: streamed schedule differs from the reference", name)
	}
	for _, got := range []*Plan{collected, ps.Plan()} {
		if !reflect.DeepEqual(got.Factors, ref.Factors) {
			t.Fatalf("%s: Factors = %v, reference %v", name, got.Factors, ref.Factors)
		}
		if !slices.Equal(got.codes, ref.codes) {
			t.Fatalf("%s: codes = %v, reference %v", name, got.codes, ref.codes)
		}
		if !reflect.DeepEqual(got.Schedule(), want) {
			t.Fatalf("%s: schedule differs from the reference", name)
		}
	}
	gotTrace, err := collected.Verify()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	refTrace, err := ref.Verify()
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !reflect.DeepEqual(gotTrace, refTrace) {
		t.Fatalf("%s: delivery trace %+v, reference %+v", name, gotTrace, refTrace)
	}
	per := OptimalSlots(d, g)
	for k, ids := range collected.Factors {
		var sent []int
		for _, slot := range want.Slots[k*per : (k+1)*per] {
			for _, s := range slot.Sends {
				if s.Packet < len(reqs) {
					sent = append(sent, s.Packet)
				}
			}
		}
		slices.Sort(sent)
		if sent = slices.Compact(sent); !slices.Equal(sent, ids) {
			t.Fatalf("%s: factor %d's slots carry requests %v, Factors lists %v", name, k, sent, ids)
		}
	}
}

// TestHRelationFactorsMatchReference pins the factor-listing contract:
// Factors[k] lists factor k's real request ids, ascending, with no dummy. It
// runs checkHRelationMatchesReference on every coloring backend, on d < g,
// d = g and d > g shapes and the direct d = 1 network, for h from 1 to 5,
// over saturated and padded relations.
func TestHRelationFactorsMatchReference(t *testing.T) {
	algos := []edgecolor.Algorithm{edgecolor.EulerSplitDC, edgecolor.RepeatedMatching, edgecolor.Insertion}
	shapes := []struct{ d, g int }{{1, 4}, {2, 4}, {3, 8}, {3, 3}, {4, 4}, {4, 2}, {6, 3}}
	rng := rand.New(rand.NewSource(28))
	for _, algo := range algos {
		for _, s := range shapes {
			for h := 1; h <= 5; h++ {
				reqs := randomHRelation(s.d*s.g, h, rng)
				checkHRelationMatchesReference(t, s.d, s.g, algo, reqs)
				checkHRelationMatchesReference(t, s.d, s.g, algo, paddedRelation(reqs, rng))
			}
		}
	}
}

// FuzzHRelationMatchesReference is the native-fuzzer form of
// TestHRelationFactorsMatchReference over fuzzer-chosen shapes (d, g ≤ 8),
// backends, degrees (h ≤ 5) and relation seeds, saturated or padded.
func FuzzHRelationMatchesReference(f *testing.F) {
	// Seeds are (d−1, g−1, backend, h−1, seed, padded).
	f.Add(uint8(2), uint8(2), uint8(0), uint8(1), int64(1), false)
	f.Add(uint8(1), uint8(7), uint8(1), uint8(3), int64(2), true)
	f.Add(uint8(5), uint8(2), uint8(2), uint8(4), int64(3), true)
	f.Add(uint8(0), uint8(4), uint8(0), uint8(2), int64(4), false)
	algos := []edgecolor.Algorithm{edgecolor.EulerSplitDC, edgecolor.RepeatedMatching, edgecolor.Insertion}
	f.Fuzz(func(t *testing.T, dSeed, gSeed, algoSeed, hSeed uint8, seed int64, padded bool) {
		d, g, h := int(dSeed)%8+1, int(gSeed)%8+1, int(hSeed)%5+1
		rng := rand.New(rand.NewSource(seed))
		reqs := randomHRelation(d*g, h, rng)
		if padded {
			reqs = paddedRelation(reqs, rng)
		}
		checkHRelationMatchesReference(t, d, g, algos[int(algoSeed)%len(algos)], reqs)
	})
}

func TestDegree(t *testing.T) {
	pl, err := NewPlanner(2, 2, Options{}) // n = 4
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 3, Dst: 0}}
	h, err := pl.degreeInto(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if h != 2 { // proc 0 sends twice, proc 2 receives twice
		t.Fatalf("h = %d, want 2", h)
	}
	if _, err := pl.degreeInto([]Request{{Src: 0, Dst: 9}}); err == nil {
		t.Fatal("out-of-range request accepted")
	}
	if _, err := pl.degreeInto([]Request{{Src: -1, Dst: 0}}); err == nil {
		t.Fatal("negative source accepted")
	}
	h, err = pl.degreeInto(nil)
	if err != nil || h != 0 {
		t.Fatalf("empty relation: h=%d err=%v", h, err)
	}
}

func TestPlanHRelationEmptyRelation(t *testing.T) {
	p, err := planHRelation(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.SlotCount() != 0 {
		t.Fatalf("empty relation uses %d slots", p.SlotCount())
	}
	if _, err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanHRelationPermutationIsOneFactor(t *testing.T) {
	// h = 1: an ordinary permutation, one factor, OptimalSlots(d,g) slots.
	pi := perms.VectorReversal(8)
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Src: i, Dst: pi[i]}
	}
	p, err := planHRelation(4, 2, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if p.H != 1 || len(p.Factors) != 1 {
		t.Fatalf("h=%d factors=%d, want 1/1", p.H, len(p.Factors))
	}
	if p.SlotCount() != PredictedHRelationSlots(4, 2, 1) {
		t.Fatalf("slots = %d, want %d", p.SlotCount(), PredictedHRelationSlots(4, 2, 1))
	}
	if _, err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanHRelationSaturatedRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct{ d, g, h int }{
		{2, 2, 2}, {4, 4, 3}, {8, 2, 2}, {3, 5, 4}, {1, 6, 3},
	} {
		reqs := randomHRelation(tc.d*tc.g, tc.h, rng)
		p, err := planHRelation(tc.d, tc.g, reqs)
		if err != nil {
			t.Fatalf("d=%d g=%d h=%d: %v", tc.d, tc.g, tc.h, err)
		}
		if p.H != tc.h {
			t.Fatalf("degree %d, want %d", p.H, tc.h)
		}
		if got, want := p.SlotCount(), PredictedHRelationSlots(tc.d, tc.g, tc.h); got != want {
			t.Fatalf("d=%d g=%d h=%d: slots = %d, want %d", tc.d, tc.g, tc.h, got, want)
		}
		if _, err := p.Verify(); err != nil {
			t.Fatalf("d=%d g=%d h=%d: %v", tc.d, tc.g, tc.h, err)
		}
	}
}

func TestPlanHRelationPartialRelationWithPadding(t *testing.T) {
	// Unbalanced: proc 0 sends 3 packets, all to proc 5; others idle.
	reqs := []Request{{Src: 0, Dst: 5}, {Src: 0, Dst: 5}, {Src: 0, Dst: 5}}
	p, err := planHRelation(3, 2, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if p.H != 3 {
		t.Fatalf("h = %d, want 3", p.H)
	}
	if _, err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	// Each factor carries exactly one real request.
	total := 0
	for _, f := range p.Factors {
		total += len(f)
	}
	if total != 3 {
		t.Fatalf("factors cover %d real requests, want 3", total)
	}
}

func TestPlanHRelationBroadcastLikeRelation(t *testing.T) {
	// One source fans out to every processor (an h = n "relation"): the
	// decomposition serializes it into n single-packet factors.
	d, g := 2, 2
	n := d * g
	var reqs []Request
	for p := 0; p < n; p++ {
		reqs = append(reqs, Request{Src: 0, Dst: p})
	}
	p, err := planHRelation(d, g, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if p.H != n {
		t.Fatalf("h = %d, want %d", p.H, n)
	}
	if _, err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanHRelationProperty(t *testing.T) {
	f := func(dSeed, gSeed, hSeed uint8, seed int64) bool {
		d := int(dSeed)%5 + 1
		g := int(gSeed)%5 + 1
		h := int(hSeed)%3 + 1
		rng := rand.New(rand.NewSource(seed))
		reqs := randomHRelation(d*g, h, rng)
		p, err := planHRelation(d, g, reqs)
		if err != nil {
			return false
		}
		if p.SlotCount() != PredictedHRelationSlots(d, g, h) {
			return false
		}
		_, err = p.Verify()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanHRelationPropertySparse(t *testing.T) {
	// Sparse random relations (not saturated): padding must fill the gaps.
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
		p, err := planHRelation(d, g, reqs)
		if err != nil {
			return false
		}
		_, err = p.Verify()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanHRelationInvalidInput(t *testing.T) {
	if _, err := planHRelation(0, 2, nil); err == nil {
		t.Fatal("invalid shape accepted")
	}
	if _, err := planHRelation(2, 2, []Request{{Src: 0, Dst: 99}}); err == nil {
		t.Fatal("bad request accepted")
	}
}

func TestAllToAllRequestsInvalidShape(t *testing.T) {
	if _, err := planHRelation(0, 2, AllToAllRequests(0)); err == nil {
		t.Fatal("invalid shape accepted")
	}
}

func TestAllToAllRequestsRoute(t *testing.T) {
	for _, tc := range []struct{ d, g int }{{2, 2}, {2, 3}, {3, 2}, {1, 4}} {
		n := tc.d * tc.g
		p, err := planHRelation(tc.d, tc.g, AllToAllRequests(n))
		if err != nil {
			t.Fatalf("d=%d g=%d: %v", tc.d, tc.g, err)
		}
		if p.H != n-1 {
			t.Fatalf("d=%d g=%d: degree %d, want %d", tc.d, tc.g, p.H, n-1)
		}
		if got, want := p.SlotCount(), PredictedHRelationSlots(tc.d, tc.g, n-1); got != want {
			t.Fatalf("d=%d g=%d: slots = %d, want %d", tc.d, tc.g, got, want)
		}
		if _, err := p.Verify(); err != nil {
			t.Fatalf("d=%d g=%d: %v", tc.d, tc.g, err)
		}
		// Every processor must appear exactly n−1 times as src and dst.
		if len(p.Reqs) != n*(n-1) {
			t.Fatalf("d=%d g=%d: %d requests, want %d", tc.d, tc.g, len(p.Reqs), n*(n-1))
		}
	}
}

// TestHRelationAllocBudget pins the steady-state allocations of a warmed
// planner's PlanHRelation on the stream-hrel benchmark's shape, a
// 4-relation on POPS(16,16). Each König factor is routed by draining a
// permutation stream for its colors alone — no slot is written, and the
// factor's permutation and colors live in planner scratch — so a plan costs
// its request snapshot and packed colors, its factor listings (counted out
// of the colors at the end into one array, with their offsets and headers)
// and the per-factor stream handles; a slot write, or an allocation per
// factor beyond the stream handle, fails it.
func TestHRelationAllocBudget(t *testing.T) {
	const d, g, h = 16, 16, 4
	pl, err := NewPlanner(d, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := randomHRelation(d*g, h, rand.New(rand.NewSource(4)))
	ctx := context.Background()
	if _, err := pl.PlanHRelation(ctx, reqs); err != nil { // warm the arenas
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := pl.PlanHRelation(ctx, reqs); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 20
	if allocs > budget {
		t.Errorf("PlanHRelation allocates %.0f/op on POPS(%d,%d), h=%d; budget %d", allocs, d, g, h, budget)
	}
}
