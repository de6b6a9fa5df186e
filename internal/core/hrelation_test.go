package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"pops/internal/perms"
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
// its request snapshot, factor listings and packed colors plus the
// per-factor stream handles; a slot write, or a copy per factor, fails it.
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
	const budget = 22
	if allocs > budget {
		t.Errorf("PlanHRelation allocates %.0f/op on POPS(%d,%d), h=%d; budget %d", allocs, d, g, h, budget)
	}
}
