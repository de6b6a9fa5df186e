package strategy

import (
	"math/rand"
	"reflect"
	"testing"

	"pops/internal/core"
	"pops/internal/perms"
	"pops/internal/singleslot"
)

func TestNamesRoundTrip(t *testing.T) {
	want := []string{"theorem2", "greedy", "direct-optimal", "singleslot", "auto"}
	if !reflect.DeepEqual(Names, want) {
		t.Fatalf("Names = %v, want %v", Names, want)
	}
	// The staircase is single-slot routable, so every strategy applies.
	pi := perms.Staircase(4, 4)
	for _, name := range Names {
		if _, err := Predict(name, 4, 4, pi); err != nil {
			t.Fatalf("Predict(%q): %v", name, err)
		}
		plan, err := Route(name, 4, 4, pi, core.Options{})
		if err != nil {
			t.Fatalf("Route(%q): %v", name, err)
		}
		if name != core.StrategyAuto && plan.Strategy != name {
			t.Fatalf("Route(%q) built a %q plan", name, plan.Strategy)
		}
	}
	if _, err := Route("warp-drive", 4, 4, pi, core.Options{}); err == nil {
		t.Fatal("Route accepted an unknown strategy")
	}
	if _, err := Predict("warp-drive", 4, 4, pi); err == nil {
		t.Fatal("Predict accepted an unknown strategy")
	}
	for _, name := range Names {
		if _, err := Route(name, 0, 4, nil, core.Options{}); err == nil {
			t.Fatalf("Route(%q) accepted an invalid shape", name)
		}
		if _, err := Predict(name, 0, 4, nil); err == nil {
			t.Fatalf("Predict(%q) accepted an invalid shape", name)
		}
	}
}

// TestRouteCases pins each baseline's slot count on the instances the
// paper's comparison rests on.
func TestRouteCases(t *testing.T) {
	rotation := func(d, g int) []int {
		pi, err := perms.GroupRotation(d, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		return pi
	}
	cases := []struct {
		strategy     string
		d, g         int
		pi           []int
		wantStrategy string // "" when the strategy must reject pi
		wantSlots    int
	}{
		// The adversary of direct routing: every group targets the next, so
		// greedy serializes d packets on one coupler while Theorem 2 needs
		// 2⌈d/g⌉, and no single slot suffices.
		{"greedy", 4, 4, rotation(4, 4), "greedy", 4},
		{"singleslot", 4, 4, rotation(4, 4), "", 0},
		{"greedy", 16, 4, rotation(16, 4), "greedy", 16},
		{"theorem2", 16, 4, rotation(16, 4), "theorem2", 8},
		// Sahni's transpose: µmax = ⌈d/g⌉ = 4 below the general bound of 8,
		// which the direct-optimal router reaches and Auto picks.
		{"direct-optimal", 8, 2, perms.Transpose(4, 4), "direct-optimal", 4},
		{"direct", 8, 2, perms.Transpose(4, 4), "direct-optimal", 4},
		{"auto", 8, 2, perms.Transpose(4, 4), "direct-optimal", 4},
		// A concentrated rotation: relays win.
		{"auto", 8, 2, rotation(8, 2), "theorem2", 8},
	}
	for _, c := range cases {
		plan, err := Route(c.strategy, c.d, c.g, c.pi, core.Options{Verify: true})
		if c.wantStrategy == "" {
			if err == nil {
				t.Fatalf("%s on POPS(%d,%d) accepted a permutation outside its class", c.strategy, c.d, c.g)
			}
			if ok, err := singleslot.IsRoutable(c.d, c.g, c.pi); err != nil || ok {
				t.Fatalf("IsRoutable = %v, %v; want false", ok, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s on POPS(%d,%d): %v", c.strategy, c.d, c.g, err)
		}
		if plan.Strategy != c.wantStrategy || plan.SlotCount() != c.wantSlots {
			t.Fatalf("%s on POPS(%d,%d): %s in %d slots, want %s in %d",
				c.strategy, c.d, c.g, plan.Strategy, plan.SlotCount(), c.wantStrategy, c.wantSlots)
		}
	}
}

func TestAutoPicksSingleSlotOnOneSlotRoutable(t *testing.T) {
	for _, s := range []struct{ d, g int }{{1, 8}, {2, 4}, {3, 8}, {4, 4}} {
		pi := perms.Staircase(s.d, s.g)
		ok, err := singleslot.IsRoutable(s.d, s.g, pi)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("staircase on POPS(%d,%d) not single-slot routable", s.d, s.g)
		}
		plan, err := Route(core.StrategyAuto, s.d, s.g, pi, core.Options{Verify: true})
		if err != nil {
			t.Fatalf("d=%d g=%d: %v", s.d, s.g, err)
		}
		if plan.Strategy != core.StrategySingleSlot {
			t.Fatalf("d=%d g=%d: auto picked %q, want %q", s.d, s.g, plan.Strategy, core.StrategySingleSlot)
		}
		if plan.SlotCount() != 1 {
			t.Fatalf("d=%d g=%d: single-slot plan uses %d slots", s.d, s.g, plan.SlotCount())
		}
		predicted, err := Predict(core.StrategyAuto, s.d, s.g, pi)
		if err != nil || predicted != 1 {
			t.Fatalf("d=%d g=%d: predicted %d (err %v), want 1", s.d, s.g, predicted, err)
		}
	}
}

func TestAutoNeverExceedsTheoremTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ d, g int }{{1, 6}, {2, 2}, {2, 8}, {4, 4}, {8, 2}, {8, 8}, {9, 3}, {16, 4}}
	for _, s := range shapes {
		workloads := [][]int{
			perms.Random(s.d*s.g, rng),
			perms.VectorReversal(s.d * s.g),
			perms.Identity(s.d * s.g),
		}
		if rot, err := perms.GroupRotation(s.d, s.g, 1); err == nil {
			workloads = append(workloads, rot)
		}
		if s.d <= s.g {
			workloads = append(workloads, perms.Staircase(s.d, s.g))
		}
		for _, pi := range workloads {
			autoPlan, err := Route(core.StrategyAuto, s.d, s.g, pi, core.Options{Verify: true})
			if err != nil {
				t.Fatalf("d=%d g=%d: auto: %v", s.d, s.g, err)
			}
			theoremPlan, err := Route(core.StrategyTheoremTwo, s.d, s.g, pi, core.Options{})
			if err != nil {
				t.Fatalf("d=%d g=%d: theorem2: %v", s.d, s.g, err)
			}
			if autoPlan.SlotCount() > theoremPlan.SlotCount() {
				t.Fatalf("d=%d g=%d: auto (%s) used %d slots, theorem2 only %d",
					s.d, s.g, autoPlan.Strategy, autoPlan.SlotCount(), theoremPlan.SlotCount())
			}
			predicted, err := Predict(core.StrategyAuto, s.d, s.g, pi)
			if err != nil {
				t.Fatalf("d=%d g=%d: predict: %v", s.d, s.g, err)
			}
			if predicted != autoPlan.SlotCount() {
				t.Fatalf("d=%d g=%d: predicted %d but routed %d", s.d, s.g, predicted, autoPlan.SlotCount())
			}
		}
	}
}

func TestPredictMatchesRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range []struct{ d, g int }{{2, 4}, {4, 4}, {8, 2}} {
		pi := perms.Random(s.d*s.g, rng)
		for _, name := range Names {
			predicted, perr := Predict(name, s.d, s.g, pi)
			plan, rerr := Route(name, s.d, s.g, pi, core.Options{})
			if (perr == nil) != (rerr == nil) {
				t.Fatalf("d=%d g=%d %s: predict err %v, route err %v", s.d, s.g, name, perr, rerr)
			}
			if perr != nil {
				continue // strategy does not apply (single slot on general pi)
			}
			if predicted != plan.SlotCount() {
				t.Fatalf("d=%d g=%d %s: predicted %d, routed %d", s.d, s.g, name, predicted, plan.SlotCount())
			}
		}
	}
}

func TestVerifyOptionCatchesNothingOnGoodPlans(t *testing.T) {
	// Verify must be transparent on correct schedules for every strategy.
	pi := perms.Staircase(2, 4)
	for _, name := range Names {
		if _, err := Route(name, 2, 4, pi, core.Options{Verify: true}); err != nil {
			t.Fatalf("%s with verify: %v", name, err)
		}
	}
}
