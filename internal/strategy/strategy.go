// Package strategy routes a permutation with any of the strategies the
// reproduction compares: the paper's Theorem 2 router, the greedy and
// optimal direct (relay-free) baselines, the Gravenstreter–Melhem
// single-slot router, and Auto, which picks the cheapest applicable one per
// permutation. Experiments E7 and E16 and popsroute's -strategy flag use it;
// the public package and the service plan Theorem 2 only.
package strategy

import (
	"fmt"

	"pops/internal/core"
	"pops/internal/greedy"
	"pops/internal/perms"
	"pops/internal/popsnet"
	"pops/internal/singleslot"
)

// Names lists the strategies Predict and Route accept, in presentation
// order. Both also accept "direct" as shorthand for "direct-optimal".
var Names = []string{
	core.StrategyTheoremTwo, core.StrategyGreedy, core.StrategyDirectOptimal,
	core.StrategySingleSlot, core.StrategyAuto,
}

// Predict returns the number of slots Route would use for pi on POPS(d, g)
// under the named strategy, or an error if the strategy does not apply to
// pi (single-slot on a permutation outside its class). Theorem 2,
// direct-optimal, single-slot and Auto answer without building a schedule;
// greedy's count depends on its packing order, so it runs the packing loop.
func Predict(name string, d, g int, pi []int) (int, error) {
	switch name {
	case core.StrategyTheoremTwo:
		nw, err := popsnet.NewNetwork(d, g)
		if err != nil {
			return 0, err
		}
		if len(pi) != nw.N() {
			return 0, fmt.Errorf("pops: permutation has length %d, want n = %d", len(pi), nw.N())
		}
		if err := perms.Validate(pi); err != nil {
			return 0, err
		}
		return core.OptimalSlots(d, g), nil
	case core.StrategyGreedy:
		res, err := greedy.Route(d, g, pi)
		if err != nil {
			return 0, err
		}
		return res.Slots, nil
	case core.StrategyDirectOptimal, "direct":
		return greedy.MaxPairMultiplicity(d, g, pi)
	case core.StrategySingleSlot:
		ok, err := singleslot.IsRoutable(d, g, pi)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("pops: permutation is not single-slot routable on POPS(%d,%d)", d, g)
		}
		return 1, nil
	case core.StrategyAuto:
		_, slots, err := choose(d, g, pi)
		return slots, err
	}
	return 0, unknown(name)
}

// Route plans pi on POPS(d, g) under the named strategy. Plan.Strategy
// records the strategy that built the schedule: for Auto, the one it chose.
// opts.Verify replays every schedule on the simulator before it is
// returned; the other options reach the Theorem 2 planner only.
func Route(name string, d, g int, pi []int, opts core.Options) (*core.Plan, error) {
	var (
		sched *popsnet.Schedule
		res   *greedy.Result
		err   error
	)
	switch name {
	case core.StrategyTheoremTwo:
		return core.PlanRoute(d, g, pi, opts)
	case core.StrategyGreedy:
		res, err = greedy.Route(d, g, pi)
	case core.StrategyDirectOptimal, "direct":
		name = core.StrategyDirectOptimal
		res, err = greedy.DirectOptimal(d, g, pi)
	case core.StrategySingleSlot:
		sched, err = singleslot.Route(d, g, pi)
	case core.StrategyAuto:
		// choose has classified pi once; the builders reuse its verdict and,
		// for direct routing, its µmax instead of re-deriving them.
		var slots int
		if name, slots, err = choose(d, g, pi); err != nil {
			return nil, err
		}
		switch name {
		case core.StrategySingleSlot:
			sched, err = singleslot.RouteRoutable(d, g, pi)
		case core.StrategyDirectOptimal:
			res, err = greedy.DirectOptimalWithMu(d, g, pi, slots)
		default:
			return core.PlanRoute(d, g, pi, opts)
		}
	default:
		return nil, unknown(name)
	}
	if err != nil {
		return nil, err
	}
	if res != nil {
		sched = res.Schedule
	}
	plan := core.FromSchedule(sched.Net, pi, sched, name)
	if opts.Verify {
		if _, err := plan.Verify(); err != nil {
			return nil, fmt.Errorf("pops: %s schedule failed verification: %w", name, err)
		}
	}
	return plan, nil
}

// choose returns the strategy Auto dispatches pi to and its slot count. One
// counting pass decides all three cases: single-slot routability
// (Gravenstreter–Melhem) is exactly µmax == 1, so the multiplicity that
// gives the direct-optimal bound answers the one-slot check too. Direct
// routing wins when µmax is below Theorem 2's 2⌈d/g⌉, so Auto never costs
// more than Theorem 2.
func choose(d, g int, pi []int) (string, int, error) {
	mu, err := greedy.MaxPairMultiplicity(d, g, pi)
	if err != nil {
		return "", 0, err
	}
	if mu == 1 {
		return core.StrategySingleSlot, 1, nil
	}
	if theorem := core.OptimalSlots(d, g); mu >= theorem {
		return core.StrategyTheoremTwo, theorem, nil
	}
	return core.StrategyDirectOptimal, mu, nil
}

func unknown(name string) error {
	return fmt.Errorf("pops: unknown routing strategy %q (want one of %v)", name, Names)
}
