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
)

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
