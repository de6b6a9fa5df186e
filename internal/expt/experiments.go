package expt

import (
	"fmt"
	"math/rand"

	"pops/internal/bounds"
	"pops/internal/core"
	"pops/internal/edgecolor"
	"pops/internal/perms"
	"pops/internal/popsnet"
	"pops/internal/strategy"
)

// Figure3Perm is the permutation of Figure 3 of the paper on POPS(3,3).
var Figure3Perm = []int{4, 8, 3, 6, 0, 2, 7, 1, 5}

// paperOptions plans every table whose cells depend on the coloring (E3's
// relay groups, say) with RepeatedMatching, the backend the recorded tables
// were produced with, so the reproduction's output does not move with the
// planner's default engine. E10 compares the backends; E11 times the
// default.
var paperOptions = core.Options{Algorithm: edgecolor.RepeatedMatching}

// Shapes swept by the slot-count experiments.
var sweepShapes = []struct{ D, G int }{
	{1, 4}, {1, 16}, {2, 2}, {2, 8}, {4, 4}, {3, 8}, {8, 8},
	{4, 2}, {8, 2}, {9, 3}, {16, 4}, {32, 8}, {16, 16},
}

// E1 validates Theorem 2's headline slot count on random permutations:
// 1 slot when d = 1, 2⌈d/g⌉ when d > 1, all schedules replayed on the
// simulator.
func E1(seed int64, trials int) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Theorem 2 slot counts on random permutations",
		Columns: []string{"d", "g", "n", "slots", "theorem", "verified", "trials"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range sweepShapes {
		n := s.D * s.G
		slots := -1
		for trial := 0; trial < trials; trial++ {
			pi := perms.Random(n, rng)
			p, err := core.PlanRoute(s.D, s.G, pi, paperOptions)
			if err != nil {
				return nil, fmt.Errorf("E1 d=%d g=%d: %w", s.D, s.G, err)
			}
			if _, err := p.Verify(); err != nil {
				return nil, fmt.Errorf("E1 d=%d g=%d: %w", s.D, s.G, err)
			}
			if slots == -1 {
				slots = p.SlotCount()
			} else if slots != p.SlotCount() {
				return nil, fmt.Errorf("E1 d=%d g=%d: slot count varies across permutations", s.D, s.G)
			}
		}
		t.AddRow(s.D, s.G, n, slots, core.OptimalSlots(s.D, s.G), slots == core.OptimalSlots(s.D, s.G), trials)
	}
	t.Notes = append(t.Notes, "paper: any permutation routes in 1 slot (d=1) / 2⌈d/g⌉ slots (d>1)")
	return t, nil
}

// E2 validates Fact 1: a fairly distributed packet set routes in one slot.
// The fair distribution is taken from the planner's relay colors: after slot
// one of the Theorem 2 schedule, the in-flight packets form a fair
// distribution, and a single DirectSlot delivers them.
func E2(seed int64) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Fact 1: fairly distributed sets route in one slot",
		Columns: []string{"d", "g", "packets", "one-slot"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range []struct{ D, G int }{{2, 2}, {2, 4}, {3, 6}, {4, 4}, {8, 8}} {
		n := s.D * s.G
		pi := perms.Random(n, rng)
		p, err := core.PlanRoute(s.D, s.G, pi, paperOptions)
		if err != nil {
			return nil, err
		}
		nw := p.Net
		// Relay position of each packet after slot 1 (d ≤ g: single round).
		relays := make([]int, n)
		rankInGroup := make(map[int]int)
		for pkt := 0; pkt < n; pkt++ {
			j := p.IntermediateGroup(pkt)
			relays[pkt] = nw.Proc(j, rankInGroup[j])
			rankInGroup[j]++
		}
		pkts := make([]int, n)
		dests := make([]int, n)
		for i := range pkts {
			pkts[i] = i
			dests[i] = pi[i]
		}
		_, err = popsnet.DirectSlot(nw, pkts, relays, dests)
		t.AddRow(s.D, s.G, n, err == nil)
		if err != nil {
			return nil, fmt.Errorf("E2 d=%d g=%d: fair distribution not one-slot routable: %w", s.D, s.G, err)
		}
	}
	return t, nil
}

// E3 reproduces the Figure 3 worked example: the POPS(3,3) permutation, the
// intermediate destination of every packet, and the two-slot routing.
func E3() (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Figure 3 worked example on POPS(3,3)",
		Columns: []string{"packet(proc)", "dest xy", "intermediate group", "round"},
	}
	p, err := core.PlanRoute(3, 3, Figure3Perm, paperOptions)
	if err != nil {
		return nil, err
	}
	if _, err := p.Verify(); err != nil {
		return nil, err
	}
	for pkt := 0; pkt < 9; pkt++ {
		dest := Figure3Perm[pkt]
		t.AddRow(pkt, fmt.Sprintf("%d%d", dest/3, dest), p.IntermediateGroup(pkt), p.Round(pkt))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("routed in %d slots (paper: 2); packets 4 and 5 share destination group 0 and get distinct relays", p.SlotCount()))
	return t, nil
}

// E4 validates Proposition 1 on random derangements: the planner's
// 2⌈d/g⌉ is within a factor 2 of the ⌈d/g⌉ lower bound.
func E4(seed int64, trials int) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Proposition 1: derangements need ≥ ⌈d/g⌉ slots",
		Columns: []string{"d", "g", "lower", "achieved", "ratio"},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range sweepShapes {
		n := s.D * s.G
		if n < 2 {
			continue
		}
		worst := 0.0
		lb := 0
		for trial := 0; trial < trials; trial++ {
			pi := perms.RandomDerangement(n, rng)
			var name string
			var err error
			lb, name, err = bounds.LowerBound(s.D, s.G, pi)
			if err != nil {
				return nil, err
			}
			_ = name
			if r := bounds.OptimalityRatio(core.OptimalSlots(s.D, s.G), lb); r > worst {
				worst = r
			}
		}
		t.AddRow(s.D, s.G, lb, core.OptimalSlots(s.D, s.G), worst)
		if worst > 2.0 {
			return nil, fmt.Errorf("E4 d=%d g=%d: ratio %v exceeds paper's factor 2", s.D, s.G, worst)
		}
	}
	t.Notes = append(t.Notes, "paper: at most double the optimum for every derangement")
	return t, nil
}

// E5 validates Proposition 2: on the group-mapping group-derangement class
// (vector reversal with even g, group rotations) the algorithm is exactly
// optimal.
func E5() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Proposition 2: optimal instances (lower bound = achieved)",
		Columns: []string{"family", "d", "g", "lower", "achieved", "optimal"},
	}
	type inst struct {
		family string
		d, g   int
		pi     []int
	}
	var instances []inst
	for _, s := range []struct{ d, g int }{{2, 2}, {4, 2}, {8, 4}, {3, 4}, {16, 2}} {
		instances = append(instances, inst{"reversal", s.d, s.g, perms.VectorReversal(s.d * s.g)})
	}
	for _, s := range []struct{ d, g int }{{4, 4}, {8, 2}, {6, 3}} {
		pi, err := perms.GroupRotation(s.d, s.g, 1)
		if err != nil {
			return nil, err
		}
		instances = append(instances, inst{"group-rotation", s.d, s.g, pi})
	}
	for _, in := range instances {
		lb, name, err := bounds.LowerBound(in.d, in.g, in.pi)
		if err != nil {
			return nil, err
		}
		if name != "Prop2" {
			return nil, fmt.Errorf("E5 %s d=%d g=%d: expected Prop2 bound, got %s", in.family, in.d, in.g, name)
		}
		ach := core.OptimalSlots(in.d, in.g)
		p, err := core.PlanRoute(in.d, in.g, in.pi, paperOptions)
		if err != nil {
			return nil, err
		}
		if _, err := p.Verify(); err != nil {
			return nil, err
		}
		t.AddRow(in.family, in.d, in.g, lb, ach, lb == ach)
	}
	t.Notes = append(t.Notes, "paper: vector reversal (even g) shows Theorem 2 is optimal; Prop 2 generalizes")
	return t, nil
}

// E6 validates Proposition 3: group-mapping derangements with fixed
// destination groups need ≥ 2⌈d/(1+g)⌉ slots.
func E6() (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Proposition 3: group-mapping derangements, fixed groups allowed",
		Columns: []string{"d", "g", "lower 2⌈d/(1+g)⌉", "achieved", "ratio"},
	}
	for _, s := range []struct{ d, g int }{{6, 2}, {9, 2}, {8, 4}, {12, 3}, {4, 4}} {
		// Identity group map with a cyclic inner derangement: group-mapping,
		// derangement, but not group-derangement — only Prop 3 applies.
		inner := make([][]int, s.g)
		for h := range inner {
			inner[h] = perms.CyclicShift(s.d, 1)
		}
		pi, err := perms.BlockPermutation(s.d, s.g, perms.Identity(s.g), inner)
		if err != nil {
			return nil, err
		}
		lb, name, err := bounds.LowerBound(s.d, s.g, pi)
		if err != nil {
			return nil, err
		}
		if name != "Prop3" {
			return nil, fmt.Errorf("E6 d=%d g=%d: expected Prop3, got %s", s.d, s.g, name)
		}
		ach := core.OptimalSlots(s.d, s.g)
		t.AddRow(s.d, s.g, lb, ach, bounds.OptimalityRatio(ach, lb))
	}
	return t, nil
}

// E7 compares the Theorem 2 router against the greedy direct baseline and
// the single-slot characterization, on random, adversarial, and reversal
// workloads. The strategies run through strategy.Route with Options.Verify,
// so every schedule in the table replayed on the simulator.
func E7(seed int64) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Theorem 2 vs greedy direct routing vs single-slot baseline",
		Columns: []string{"workload", "d", "g", "theorem2", "greedy", "speedup", "1-slot?"},
	}
	rng := rand.New(rand.NewSource(seed))
	type wl struct {
		name string
		d, g int
		pi   []int
	}
	var wls []wl
	for _, s := range []struct{ d, g int }{{4, 4}, {8, 8}, {16, 4}, {8, 2}, {32, 8}} {
		n := s.d * s.g
		wls = append(wls, wl{"random", s.d, s.g, perms.Random(n, rng)})
		rot, err := perms.GroupRotation(s.d, s.g, 1)
		if err != nil {
			return nil, err
		}
		wls = append(wls, wl{"group-rotation", s.d, s.g, rot})
		wls = append(wls, wl{"reversal", s.d, s.g, perms.VectorReversal(n)})
	}
	verify := core.Options{Verify: true}
	for _, w := range wls {
		p, err := strategy.Route(core.StrategyTheoremTwo, w.d, w.g, w.pi, verify)
		if err != nil {
			return nil, err
		}
		gp, err := strategy.Route(core.StrategyGreedy, w.d, w.g, w.pi, verify)
		if err != nil {
			return nil, err
		}
		_, ssErr := strategy.Predict(core.StrategySingleSlot, w.d, w.g, w.pi)
		t.AddRow(w.name, w.d, w.g, p.SlotCount(), gp.SlotCount(),
			float64(gp.SlotCount())/float64(p.SlotCount()), ssErr == nil)
	}
	t.Notes = append(t.Notes, "group-rotation serializes greedy on one coupler: d slots vs 2⌈d/g⌉")
	return t, nil
}
