package pops

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pops/internal/core"
	"pops/internal/perms"
)

func TestAllRoutersImplementInterfaceAndRoundTrip(t *testing.T) {
	routers, err := AllRouters(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(routers) != len(Strategies()) {
		t.Fatalf("AllRouters returned %d routers, want %d", len(routers), len(Strategies()))
	}
	for i, r := range routers {
		if r.Name() != Strategies()[i] {
			t.Fatalf("router %d Name() = %q, want %q", i, r.Name(), Strategies()[i])
		}
		viaFactory, err := NewRouter(r.Name(), 4, 4)
		if err != nil {
			t.Fatalf("NewRouter(%q): %v", r.Name(), err)
		}
		if viaFactory.Name() != r.Name() {
			t.Fatalf("factory round trip: %q != %q", viaFactory.Name(), r.Name())
		}
	}
	if _, err := NewRouter("warp-drive", 4, 4); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := NewRouter(StrategyTheoremTwo, 0, 4); err == nil {
		t.Fatal("invalid shape accepted")
	}
}

func TestAutoPicksSingleSlotOnOneSlotRoutable(t *testing.T) {
	for _, s := range []struct{ d, g int }{{1, 8}, {2, 4}, {3, 8}, {4, 4}} {
		pi := perms.Staircase(s.d, s.g)
		ok, err := IsOneSlotRoutable(s.d, s.g, pi)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("staircase on POPS(%d,%d) not single-slot routable", s.d, s.g)
		}
		auto, err := NewAuto(s.d, s.g, WithVerify(true))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := auto.Route(pi)
		if err != nil {
			t.Fatalf("d=%d g=%d: %v", s.d, s.g, err)
		}
		if plan.Strategy != StrategySingleSlot {
			t.Fatalf("d=%d g=%d: auto picked %q, want %q", s.d, s.g, plan.Strategy, StrategySingleSlot)
		}
		if plan.SlotCount() != 1 {
			t.Fatalf("d=%d g=%d: single-slot plan uses %d slots", s.d, s.g, plan.SlotCount())
		}
		predicted, err := auto.PredictedSlots(pi)
		if err != nil || predicted != 1 {
			t.Fatalf("d=%d g=%d: predicted %d (err %v), want 1", s.d, s.g, predicted, err)
		}
	}
}

func TestAutoNeverExceedsTheoremTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ d, g int }{{1, 6}, {2, 2}, {2, 8}, {4, 4}, {8, 2}, {8, 8}, {9, 3}, {16, 4}}
	for _, s := range shapes {
		auto, err := NewAuto(s.d, s.g, WithVerify(true))
		if err != nil {
			t.Fatal(err)
		}
		theorem, err := NewTheoremTwo(s.d, s.g)
		if err != nil {
			t.Fatal(err)
		}
		workloads := [][]int{
			RandomPermutation(s.d*s.g, rng),
			VectorReversal(s.d * s.g),
			IdentityPermutation(s.d * s.g),
		}
		if rot, err := GroupRotation(s.d, s.g, 1); err == nil {
			workloads = append(workloads, rot)
		}
		if s.d <= s.g {
			workloads = append(workloads, perms.Staircase(s.d, s.g))
		}
		for _, pi := range workloads {
			autoPlan, err := auto.Route(pi)
			if err != nil {
				t.Fatalf("d=%d g=%d: auto: %v", s.d, s.g, err)
			}
			theoremPlan, err := theorem.Route(pi)
			if err != nil {
				t.Fatalf("d=%d g=%d: theorem2: %v", s.d, s.g, err)
			}
			if autoPlan.SlotCount() > theoremPlan.SlotCount() {
				t.Fatalf("d=%d g=%d: auto (%s) used %d slots, theorem2 only %d",
					s.d, s.g, autoPlan.Strategy, autoPlan.SlotCount(), theoremPlan.SlotCount())
			}
			predicted, err := auto.PredictedSlots(pi)
			if err != nil {
				t.Fatalf("d=%d g=%d: predict: %v", s.d, s.g, err)
			}
			if predicted != autoPlan.SlotCount() {
				t.Fatalf("d=%d g=%d: predicted %d but routed %d", s.d, s.g, predicted, autoPlan.SlotCount())
			}
		}
	}
}

func TestPredictedSlotsMatchesRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range []struct{ d, g int }{{2, 4}, {4, 4}, {8, 2}} {
		pi := RandomPermutation(s.d*s.g, rng)
		routers, err := AllRouters(s.d, s.g)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range routers {
			predicted, perr := r.PredictedSlots(pi)
			plan, rerr := r.Route(pi)
			if (perr == nil) != (rerr == nil) {
				t.Fatalf("d=%d g=%d %s: predict err %v, route err %v", s.d, s.g, r.Name(), perr, rerr)
			}
			if perr != nil {
				continue // strategy does not apply (single slot on general pi)
			}
			if predicted != plan.SlotCount() {
				t.Fatalf("d=%d g=%d %s: predicted %d, routed %d",
					s.d, s.g, r.Name(), predicted, plan.SlotCount())
			}
		}
	}
}

func TestRouteBatchMatchesSequentialAndIsOrderStable(t *testing.T) {
	const d, g = 4, 8
	rng := rand.New(rand.NewSource(13))
	pis := make([][]int, 24)
	for i := range pis {
		pis[i] = RandomPermutation(d*g, rng)
	}
	for _, par := range []int{1, 3, 8} {
		planner, err := NewPlanner(d, g, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		plans, err := planner.RouteBatch(pis)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(plans) != len(pis) {
			t.Fatalf("par=%d: %d plans for %d permutations", par, len(plans), len(pis))
		}
		for i, plan := range plans {
			if !reflect.DeepEqual(plan.Pi, pis[i]) {
				t.Fatalf("par=%d: plan %d is for the wrong permutation", par, i)
			}
			seq, err := core.PlanRoute(d, g, pis[i], Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Planning is deterministic, so the batch schedule must be
			// identical to the sequential one, not merely equivalent.
			if !reflect.DeepEqual(plan.Schedule().Slots, seq.Schedule().Slots) {
				t.Fatalf("par=%d: plan %d differs from sequential core.PlanRoute", par, i)
			}
			if _, err := plan.Verify(); err != nil {
				t.Fatalf("par=%d: plan %d: %v", par, i, err)
			}
		}
	}
}

func TestRouteBatchAggregatesAllErrorsAndKeepsSuccesses(t *testing.T) {
	planner, err := NewPlanner(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pis := [][]int{
		IdentityPermutation(4),
		{0, 1, 2},    // wrong length
		{0, 0, 1, 1}, // not a permutation
		VectorReversal(4),
	}
	plans, err := planner.RouteBatch(pis)
	if err == nil {
		t.Fatal("batch with invalid permutations succeeded")
	}
	// Every failing index is named, not just the lowest.
	for _, want := range []string{"batch permutation 1", "batch permutation 2"} {
		if got := err.Error(); !strings.Contains(got, want) {
			t.Fatalf("error %q does not name failing index (%q)", got, want)
		}
	}
	// The join unwraps into typed per-index errors.
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("batch error %T is not an errors.Join aggregate", err)
	}
	var indices []int
	for _, sub := range joined.Unwrap() {
		var be *BatchError
		if !errors.As(sub, &be) {
			t.Fatalf("joined element %v is not a *BatchError", sub)
		}
		indices = append(indices, be.Index)
	}
	if !reflect.DeepEqual(indices, []int{1, 2}) {
		t.Fatalf("failing indices = %v, want [1 2]", indices)
	}
	// Successful plans are still returned; nil only at failing indices.
	if plans[0] == nil || plans[3] == nil {
		t.Fatalf("successful plans were dropped: %v", plans)
	}
	if plans[1] != nil || plans[2] != nil {
		t.Fatalf("failing indices carry non-nil plans: %v", plans)
	}
	for _, i := range []int{0, 3} {
		if _, err := plans[i].Verify(); err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
	}
}

func TestPlannerRectangularShapes(t *testing.T) {
	// g >> d and d >> g exercise the invariant-check scratch sizing: the
	// per-class check must stay O(n), not O(g·max(d,g)).
	rng := rand.New(rand.NewSource(21))
	for _, s := range []struct{ d, g int }{{2, 128}, {3, 64}, {64, 2}} {
		p, err := NewPlanner(s.d, s.g)
		if err != nil {
			t.Fatal(err)
		}
		for it := 0; it < 2; it++ {
			plan, err := p.Execute(context.Background(), Permutation(RandomPermutation(s.d*s.g, rng)))
			if err != nil {
				t.Fatalf("d=%d g=%d: %v", s.d, s.g, err)
			}
			if _, err := plan.Verify(); err != nil {
				t.Fatalf("d=%d g=%d: %v", s.d, s.g, err)
			}
		}
	}
}

func TestPlannerConcurrentRoute(t *testing.T) {
	planner, err := NewPlanner(8, 4, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for w := 0; w < len(errs); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < 10; it++ {
				pi := RandomPermutation(32, rng)
				plan, err := planner.Execute(context.Background(), Permutation(pi))
				if err != nil {
					errs[w] = err
					return
				}
				if _, err := plan.Verify(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

func TestRouterVerifyOptionCatchesNothingOnGoodPlans(t *testing.T) {
	// WithVerify must be transparent on correct schedules for every strategy.
	pi := perms.Staircase(2, 4)
	routers, err := AllRouters(2, 4, WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range routers {
		if _, err := r.Route(pi); err != nil {
			t.Fatalf("%s with verify: %v", r.Name(), err)
		}
	}
}
