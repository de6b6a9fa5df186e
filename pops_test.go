package pops

import (
	"context"
	"math/rand"
	"testing"
)

// execute plans w on a fresh POPS(d, g) planner.
func execute(d, g int, w Workload, opts ...Option) (*Plan, error) {
	p, err := NewPlanner(d, g, opts...)
	if err != nil {
		return nil, err
	}
	return p.Execute(context.Background(), w)
}

func TestFacadeRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pi := RandomPermutation(64, rng)
	plan, err := execute(8, 8, Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	if plan.SlotCount() != OptimalSlots(8, 8) {
		t.Fatalf("slots = %d, want %d", plan.SlotCount(), OptimalSlots(8, 8))
	}
	if _, err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRouteWithAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pi := RandomDerangement(24, rng)
	for _, algo := range []Algorithm{RepeatedMatching, EulerSplitDC, Insertion} {
		plan, err := execute(4, 6, Permutation(pi), WithAlgorithm(algo), WithVerify(true))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if plan.Strategy != StrategyTheoremTwo {
			t.Fatalf("%v: strategy = %q, want %q", algo, plan.Strategy, StrategyTheoremTwo)
		}
		if plan.SlotCount() != OptimalSlots(4, 6) {
			t.Fatalf("%v: slots = %d, want %d", algo, plan.SlotCount(), OptimalSlots(4, 6))
		}
	}
}

func TestFacadeLowerBound(t *testing.T) {
	lb, prop, err := LowerBound(4, 2, VectorReversal(8))
	if err != nil {
		t.Fatal(err)
	}
	if prop != "Prop2" || lb != 4 {
		t.Fatalf("LowerBound = %d (%s), want 4 (Prop2)", lb, prop)
	}
}

func TestFacadeGreedyAndSingleSlot(t *testing.T) {
	pi, err := GroupRotation(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := NewGreedy(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := greedy.Route(pi)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SlotCount() != 4 {
		t.Fatalf("greedy slots = %d, want 4", plan.SlotCount())
	}
	if plan.Strategy != StrategyGreedy {
		t.Fatalf("strategy = %q, want %q", plan.Strategy, StrategyGreedy)
	}
	ok, err := IsOneSlotRoutable(4, 4, pi)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("adversarial permutation claimed one-slot routable")
	}
	single, err := NewSingleSlot(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.Route(pi); err == nil {
		t.Fatal("SingleSlot accepted unroutable permutation")
	}
}

func TestFacadeBroadcastAndRun(t *testing.T) {
	nw, err := NewNetwork(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := execute(2, 3, OneToAll(4))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != "one-to-all" || plan.Speaker != 4 || plan.SlotCount() != 1 {
		t.Fatalf("broadcast plan = strategy %q speaker %d slots %d", plan.Strategy, plan.Speaker, plan.SlotCount())
	}
	if _, err := plan.Verify(); err != nil {
		t.Fatal(err)
	}

	// Run replays the paper's one-slot broadcast: every processor receives.
	tr, err := Run(plan.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.PacketsMoved) != 1 || tr.PacketsMoved[0] != nw.N() {
		t.Fatalf("broadcast trace = %+v", tr)
	}
}

func TestFacadePermutationFamilies(t *testing.T) {
	if err := ValidatePermutation(IdentityPermutation(5)); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePermutation(VectorReversal(7)); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePermutation(Transpose(3, 4)); err != nil {
		t.Fatal(err)
	}
	shift, err := MeshShift(3, 4, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePermutation(shift); err != nil {
		t.Fatal(err)
	}
	bpc, err := NewBPC(3, []int{1, 2, 0}, 0b101)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePermutation(bpc.Permutation()); err != nil {
		t.Fatal(err)
	}
	hc, err := HypercubeExchange(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hc.Apply(0) != 4 {
		t.Fatalf("exchange(0) = %d, want 4", hc.Apply(0))
	}
	br, err := BitReversal(3)
	if err != nil {
		t.Fatal(err)
	}
	if br.Apply(1) != 4 {
		t.Fatalf("bit-reversal(1) = %d, want 4", br.Apply(1))
	}
}

func TestFacadeHRelation(t *testing.T) {
	reqs := []Request{{Src: 0, Dst: 3}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}}
	plan, err := execute(2, 2, HRelation(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if plan.H != 2 {
		t.Fatalf("degree = %d, want 2", plan.H)
	}
	if plan.SlotCount() != HRelationSlots(2, 2, 2) {
		t.Fatalf("slots = %d, want %d", plan.SlotCount(), HRelationSlots(2, 2, 2))
	}
	if _, err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAllToAll(t *testing.T) {
	plan, err := execute(2, 2, AllToAll())
	if err != nil {
		t.Fatal(err)
	}
	if plan.H != 3 {
		t.Fatalf("degree = %d, want 3", plan.H)
	}
	if _, err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
}
