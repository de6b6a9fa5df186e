package pops_test

import (
	"context"
	"fmt"
	"math/rand"

	"pops"
)

// ExamplePermutation routes the Figure 3 permutation of the paper on
// POPS(3,3).
func ExamplePermutation() {
	planner, err := pops.NewPlanner(3, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	pi := []int{4, 8, 3, 6, 0, 2, 7, 1, 5} // Figure 3
	plan, err := planner.Execute(context.Background(), pops.Permutation(pi))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("slots:", plan.SlotCount())
	if _, err := plan.Verify(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("delivered: all packets")
	// Output:
	// slots: 2
	// delivered: all packets
}

// ExampleOptimalSlots shows the Theorem 2 slot bound across network shapes.
func ExampleOptimalSlots() {
	fmt.Println(pops.OptimalSlots(1, 16)) // d = 1: one slot
	fmt.Println(pops.OptimalSlots(8, 8))  // d ≤ g: two slots
	fmt.Println(pops.OptimalSlots(9, 3))  // d > g: 2⌈9/3⌉
	// Output:
	// 1
	// 2
	// 6
}

// ExampleLowerBound classifies vector reversal, the paper's optimality
// witness (Proposition 2).
func ExampleLowerBound() {
	lb, prop, _ := pops.LowerBound(4, 2, pops.VectorReversal(8))
	fmt.Printf("%d slots via %s; achieved %d\n", lb, prop, pops.OptimalSlots(4, 2))
	// Output:
	// 4 slots via Prop2; achieved 4
}

// ExamplePlanner routes a batch of permutations with one Planner: the
// network is validated once, internal buffers are reused, and results come
// back in input order.
func ExamplePlanner() {
	planner, _ := pops.NewPlanner(8, 8, pops.WithParallelism(2))
	rng := rand.New(rand.NewSource(3))
	pis := [][]int{
		pops.RandomPermutation(64, rng),
		pops.VectorReversal(64),
		pops.RandomDerangement(64, rng),
	}
	plans, _ := planner.RouteBatch(pis)
	for _, plan := range plans {
		fmt.Println(plan.SlotCount(), "slots")
	}
	// Output:
	// 2 slots
	// 2 slots
	// 2 slots
}

// ExamplePlanner_Execute plans every workload kind through the unified
// context-aware Execute surface.
func ExamplePlanner_Execute() {
	ctx := context.Background()
	planner, _ := pops.NewPlanner(2, 2) // n = 4
	perm, _ := planner.Execute(ctx, pops.Permutation([]int{3, 2, 1, 0}))
	hrel, _ := planner.Execute(ctx, pops.HRelation([]pops.Request{
		{Src: 0, Dst: 3}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3},
	}))
	exchange, _ := planner.Execute(ctx, pops.AllToAll())
	broadcast, _ := planner.Execute(ctx, pops.OneToAll(1))
	fmt.Printf("permutation: %d slots (%s)\n", perm.SlotCount(), perm.Strategy)
	fmt.Printf("h-relation:  %d slots (h = %d)\n", hrel.SlotCount(), hrel.H)
	fmt.Printf("all-to-all:  %d slots (h = %d)\n", exchange.SlotCount(), exchange.H)
	fmt.Printf("one-to-all:  %d slot  (speaker %d)\n", broadcast.SlotCount(), broadcast.Speaker)
	// Output:
	// permutation: 2 slots (theorem2)
	// h-relation:  4 slots (h = 2)
	// all-to-all:  6 slots (h = 3)
	// one-to-all:  1 slot  (speaker 1)
}

// ExamplePlanner_ExecuteStream streams an h-relation: each König factor of
// the request multigraph is routed as soon as it is peeled, and its slots
// are emitted while the remaining factorization is still running.
func ExamplePlanner_ExecuteStream() {
	planner, _ := pops.NewPlanner(2, 2)
	reqs := []pops.Request{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
		{Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 0}, {Src: 3, Dst: 1},
	}
	ps, _ := planner.ExecuteStream(context.Background(), pops.HRelation(reqs))
	for {
		frag, ok := ps.Next()
		if !ok {
			break
		}
		fmt.Printf("slot %d from factor %d: %d sends\n", frag.Slot, frag.Color, len(frag.Sends))
	}
	plan, _ := ps.Collect() // identical to Execute's plan
	fmt.Println("total slots:", plan.SlotCount())
	// Output:
	// slot 0 from factor 0: 4 sends
	// slot 1 from factor 0: 4 sends
	// slot 2 from factor 1: 4 sends
	// slot 3 from factor 1: 4 sends
	// total slots: 4
}

// ExampleIsOneSlotRoutable shows the Gravenstreter–Melhem characterization.
func ExampleIsOneSlotRoutable() {
	rng := rand.New(rand.NewSource(1))
	ok, _ := pops.IsOneSlotRoutable(1, 8, pops.RandomPermutation(8, rng))
	fmt.Println("d=1 random:", ok)
	ok, _ = pops.IsOneSlotRoutable(3, 3, []int{4, 8, 3, 6, 0, 2, 7, 1, 5})
	fmt.Println("Figure 3:", ok)
	// Output:
	// d=1 random: true
	// Figure 3: false
}
