// Quickstart: route a random permutation on a POPS(8,16) network (128
// processors) through the Planner, verify the schedule on the slot-level
// simulator, and compare its slot count with the lower bound of
// Propositions 1–3.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"pops"
)

func main() {
	const d, g = 8, 16
	rng := rand.New(rand.NewSource(2026))

	// A Planner validates the network once and reuses its internal buffers
	// across Execute calls — hold one per network shape.
	planner, err := pops.NewPlanner(d, g)
	if err != nil {
		log.Fatal(err)
	}
	nw := planner.Network()
	fmt.Printf("network: %v — %d processors, %d couplers, diameter 1\n",
		nw, nw.N(), nw.Couplers())

	pi := pops.RandomDerangement(nw.N(), rng)

	plan, err := planner.Execute(context.Background(), pops.Permutation(pi))
	if err != nil {
		log.Fatal(err)
	}
	trace, err := plan.Verify()
	if err != nil {
		log.Fatalf("schedule failed simulation: %v", err)
	}
	fmt.Printf("%s routing: %d slots (bound 2⌈d/g⌉ = %d)\n",
		plan.Strategy, plan.SlotCount(), pops.OptimalSlots(d, g))
	fmt.Printf("packets moved per slot: %v\n", trace.PacketsMoved)

	lb, prop, err := pops.LowerBound(d, g, pi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lower bound: %d slots (%s) — within factor %.1f\n",
		lb, prop, float64(plan.SlotCount())/float64(lb))
}
