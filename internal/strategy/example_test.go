package strategy_test

import (
	"fmt"

	"pops/internal/core"
	"pops/internal/perms"
	"pops/internal/strategy"
)

// ExampleRoute_greedy shows the adversarial instance where direct routing
// degenerates and the two-phase routing of Theorem 2 wins.
func ExampleRoute_greedy() {
	pi, _ := perms.GroupRotation(16, 4, 1) // every group targets the next one
	gp, _ := strategy.Route(core.StrategyGreedy, 16, 4, pi, core.Options{})
	tp, _ := strategy.Route(core.StrategyTheoremTwo, 16, 4, pi, core.Options{})
	fmt.Printf("%s: %d slots, %s: %d slots\n", gp.Strategy, gp.SlotCount(), tp.Strategy, tp.SlotCount())
	// Output:
	// greedy: 16 slots, theorem2: 8 slots
}

// ExampleRoute_directOptimal recovers Sahni's specialized transpose bound.
func ExampleRoute_directOptimal() {
	pi := perms.Transpose(4, 4) // 4×4 matrix on POPS(8,2)
	plan, _ := strategy.Route(core.StrategyDirectOptimal, 8, 2, pi, core.Options{})
	fmt.Printf("transpose: %d slots (general bound %d)\n", plan.SlotCount(), core.OptimalSlots(8, 2))
	// Output:
	// transpose: 4 slots (general bound 8)
}

// ExampleRoute_auto shows Auto picking the cheapest applicable strategy per
// permutation and recording its choice in Plan.Strategy.
func ExampleRoute_auto() {
	transpose, _ := strategy.Route(core.StrategyAuto, 8, 2, perms.Transpose(4, 4), core.Options{}) // µmax = 4 < 2⌈d/g⌉ = 8
	rotation, _ := perms.GroupRotation(8, 2, 1)                                                    // concentrated: relays win
	adversarial, _ := strategy.Route(core.StrategyAuto, 8, 2, rotation, core.Options{})
	fmt.Printf("transpose: %s in %d slots\n", transpose.Strategy, transpose.SlotCount())
	fmt.Printf("rotation:  %s in %d slots\n", adversarial.Strategy, adversarial.SlotCount())
	// Output:
	// transpose: direct-optimal in 4 slots
	// rotation:  theorem2 in 8 slots
}
