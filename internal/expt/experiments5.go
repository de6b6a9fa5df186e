package expt

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"pops"
	"pops/internal/core"
	"pops/internal/perms"
	"pops/internal/strategy"
)

// E16 routes the same workloads under every strategy of strategy.Names:
// single-slot applicability shows up as "n/a" where the characterization
// rejects the permutation, and the Auto router's per-permutation choice
// (recorded in Plan.Strategy) is tabulated together with the invariant that
// it never costs more than Theorem 2. The batch is planned twice — sequentially
// through Planner.Execute and through Planner.RouteBatch — and every plan's
// schedule must agree slot for slot.
func E16(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E16",
		Title: "Unified Router API: slots per strategy and Auto's choice",
		Columns: []string{
			"workload", "d", "g", "theorem2", "greedy", "direct-optimal", "singleslot",
			"auto", "auto picked",
		},
	}
	rng := rand.New(rand.NewSource(seed))
	type wl struct {
		name string
		d, g int
		pi   []int
	}
	var wls []wl
	for _, s := range []struct{ d, g int }{{4, 4}, {8, 8}, {16, 4}} {
		wls = append(wls, wl{"random", s.d, s.g, perms.Random(s.d*s.g, rng)})
		rot, err := perms.GroupRotation(s.d, s.g, 1)
		if err != nil {
			return nil, err
		}
		wls = append(wls, wl{"group-rotation", s.d, s.g, rot})
	}
	// Transpose on POPS(8,2): µmax = ⌈d/g⌉ = 4 < 2⌈d/g⌉ = 8, so Auto must
	// route direct. The staircase on POPS(2,4) uses every (source group,
	// destination group) pair at most once: single-slot routable.
	wls = append(wls, wl{"transpose", 8, 2, perms.Transpose(4, 4)})
	wls = append(wls, wl{"staircase", 2, 4, perms.Staircase(2, 4)})

	verify := core.Options{Verify: true}
	for _, w := range wls {
		cells := []interface{}{w.name, w.d, w.g}
		var theoremSlots, autoSlots int
		var autoPicked string
		for _, name := range strategy.Names {
			// Genuine non-applicability (single slot on an unroutable
			// permutation) renders as n/a; any error from an applicable
			// strategy — including a verification failure — fails the
			// experiment.
			if name == core.StrategySingleSlot {
				if _, err := strategy.Predict(name, w.d, w.g, w.pi); err != nil {
					cells = append(cells, "n/a")
					continue
				}
			}
			plan, err := strategy.Route(name, w.d, w.g, w.pi, verify)
			if err != nil {
				return nil, fmt.Errorf("E16 %s d=%d g=%d %s: %w", w.name, w.d, w.g, name, err)
			}
			cells = append(cells, plan.SlotCount())
			switch name {
			case core.StrategyTheoremTwo:
				theoremSlots = plan.SlotCount()
			case core.StrategyAuto:
				autoSlots = plan.SlotCount()
				autoPicked = plan.Strategy
			}
		}
		// Hard invariant, enforced rather than tabulated: a violating row
		// must fail the experiment, not render a "no" cell.
		if autoSlots > theoremSlots {
			return nil, fmt.Errorf("E16 %s d=%d g=%d: auto used %d slots, theorem2 only %d",
				w.name, w.d, w.g, autoSlots, theoremSlots)
		}
		cells = append(cells, autoPicked)
		t.AddRow(cells...)
	}

	// Batch path: RouteBatch must agree with sequential Execute plan for
	// plan, schedule and all.
	d, g := 8, 8
	planner, err := pops.NewPlanner(d, g, pops.WithParallelism(2))
	if err != nil {
		return nil, err
	}
	sequential, err := pops.NewPlanner(d, g)
	if err != nil {
		return nil, err
	}
	pis := make([][]int, 16)
	for i := range pis {
		pis[i] = perms.Random(d*g, rng)
	}
	plans, err := planner.RouteBatch(pis)
	if err != nil {
		return nil, err
	}
	for i, plan := range plans {
		seq, err := sequential.Execute(context.Background(), pops.Permutation(pis[i]))
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(plan.Schedule().Slots, seq.Schedule().Slots) {
			return nil, fmt.Errorf("E16 batch: plan %d's schedule differs from the sequential Execute plan", i)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("RouteBatch(%d perms on POPS(%d,%d), 2 workers) matches sequential Route slot for slot", len(pis), d, g),
		"auto picks singleslot on one-slot-routable permutations, direct-optimal when µmax < 2⌈d/g⌉, theorem2 otherwise")
	return t, nil
}
