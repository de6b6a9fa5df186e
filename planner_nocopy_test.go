package pops

import (
	"context"
	"math/rand"
	"testing"
)

// TestWithPlanNoCopyAliases pins the ownership contract of WithPlanNoCopy:
// by default a Plan snapshots the permutation; under the option it aliases
// the caller's slice.
func TestWithPlanNoCopyAliases(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	pi := RandomPermutation(64, rng)

	p, err := NewPlanner(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Execute(ctx, Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	if &plan.Pi[0] == &pi[0] {
		t.Fatal("default Plan aliases the caller's permutation")
	}
	saved := plan.Pi[0]
	pi[0], pi[1] = pi[1], pi[0]
	if plan.Pi[0] != saved {
		t.Fatal("default Plan changed when the caller's slice was mutated")
	}
	pi[0], pi[1] = pi[1], pi[0] // restore

	pn, err := NewPlanner(8, 8, WithPlanNoCopy())
	if err != nil {
		t.Fatal(err)
	}
	planNC, err := pn.Execute(ctx, Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	if &planNC.Pi[0] != &pi[0] {
		t.Fatal("WithPlanNoCopy Plan does not alias the caller's permutation")
	}
	if _, err := planNC.Verify(); err != nil {
		t.Fatalf("no-copy plan fails verification: %v", err)
	}
	// d = 1 path (direct schedule) honours the option too.
	pd, err := NewPlanner(1, 16, WithPlanNoCopy())
	if err != nil {
		t.Fatal(err)
	}
	piD := RandomPermutation(16, rng)
	planD, err := pd.Execute(ctx, Permutation(piD))
	if err != nil {
		t.Fatal(err)
	}
	if &planD.Pi[0] != &piD[0] {
		t.Fatal("WithPlanNoCopy d=1 Plan does not alias the caller's permutation")
	}
}

// TestRouteBatchNoCopyMatchesDefault checks the option changes ownership
// only: schedules and colors are identical with and without it.
func TestRouteBatchNoCopyMatchesDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pis := make([][]int, 8)
	for i := range pis {
		pis[i] = RandomPermutation(64, rng)
	}
	p, err := NewPlanner(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := NewPlanner(16, 4, WithPlanNoCopy())
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.RouteBatch(pis)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pn.RouteBatch(pis)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if len(want[i].Colors) != len(got[i].Colors) {
			t.Fatalf("plan %d: colors length differs", i)
		}
		for j := range want[i].Colors {
			if want[i].Colors[j] != got[i].Colors[j] {
				t.Fatalf("plan %d: color %d differs: %d vs %d", i, j, want[i].Colors[j], got[i].Colors[j])
			}
		}
		if want[i].SlotCount() != got[i].SlotCount() {
			t.Fatalf("plan %d: slot count differs", i)
		}
	}
}
