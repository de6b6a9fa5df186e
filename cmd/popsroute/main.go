// Command popsroute plans and verifies the routing of a workload on a
// POPS(d, g) network and prints the resulting schedule. The workload is the
// unit of planning (pops.Workload, executed by Planner.Execute): a
// permutation (default, with pluggable routing strategy — Theorem 2's
// universal relay router, the greedy and optimal direct baselines, the
// Gravenstreter–Melhem single-slot router, or "auto"), the all-to-all
// complete exchange, or the one-to-all broadcast.
//
// Usage:
//
//	popsroute -d 3 -g 3 -perm 4,8,3,6,0,2,7,1,5   # Figure 3 of the paper
//	popsroute -d 8 -g 4 -family random -seed 7
//	popsroute -d 4 -g 4 -family reversal -schedule
//	popsroute -d 16 -g 4 -family transpose -strategy auto
//	popsroute -d 4 -g 4 -workload all-to-all
//	popsroute -d 3 -g 3 -workload one-to-all -speaker 4 -schedule
//	popsroute -d 3 -g 3 -topology
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"pops"
	"pops/internal/popsnet"
	"pops/internal/strategy"
)

func main() {
	var (
		d        = flag.Int("d", 3, "processors per group")
		g        = flag.Int("g", 3, "number of groups")
		workload = flag.String("workload", pops.WorkloadPermutation,
			"workload kind: permutation | all-to-all | one-to-all")
		permSpec = flag.String("perm", "", "explicit permutation, comma-separated destinations")
		family   = flag.String("family", "", "named family: random | derangement | reversal | rotation | transpose | identity")
		strat    = flag.String("strategy", pops.StrategyTheoremTwo,
			fmt.Sprintf("routing strategy (permutation workloads): %s", strings.Join(strategy.Names, " | ")))
		speaker  = flag.Int("speaker", 0, "broadcasting processor (one-to-all workloads)")
		seed     = flag.Int64("seed", 1, "seed for random families")
		topology = flag.Bool("topology", false, "print network structure and exit")
		schedule = flag.Bool("schedule", false, "print the full slot schedule")
		stats    = flag.Bool("stats", false, "print schedule resource statistics")
	)
	flag.Parse()

	if err := run(*d, *g, *workload, *permSpec, *family, *strat, *speaker, *seed, *topology, *schedule, *stats); err != nil {
		fmt.Fprintf(os.Stderr, "popsroute: %v\n", err)
		os.Exit(1)
	}
}

func run(d, g int, workload, permSpec, family, strat string, speaker int, seed int64, topology, schedule, stats bool) error {
	nw, err := pops.NewNetwork(d, g)
	if err != nil {
		return err
	}
	if topology {
		printTopology(nw)
		return nil
	}
	if workload != "" && workload != pops.WorkloadPermutation {
		return runWorkload(nw, workload, speaker, schedule, stats)
	}

	pi, err := buildPermutation(nw, permSpec, family, seed)
	if err != nil {
		return err
	}

	plan, err := strategy.Route(strat, d, g, pi, pops.Options{Verify: true})
	if err != nil {
		return err
	}

	fmt.Printf("%v: n=%d processors, %d couplers\n", nw, nw.N(), nw.Couplers())
	fmt.Printf("permutation: %v\n", pi)
	lb, prop, err := pops.LowerBound(d, g, pi)
	if err != nil {
		return err
	}
	fmt.Printf("strategy %s: %d slots (Theorem 2 bound: %d, lower bound: %d via %s)\n",
		plan.Strategy, plan.SlotCount(), pops.OptimalSlots(d, g), lb, prop)

	fmt.Println("strategy comparison (predicted slots):")
	for _, name := range strategy.Names {
		predicted, err := strategy.Predict(name, d, g, pi)
		if err != nil {
			fmt.Printf("  %-14s n/a (%v)\n", name, err)
			continue
		}
		fmt.Printf("  %-14s %d slots\n", name, predicted)
	}

	if plan.Colors != nil {
		fmt.Println("relay assignment (packet: intermediate group @ round):")
		for p := 0; p < nw.N(); p++ {
			fmt.Printf("  packet %3d -> proc %3d   via group %d round %d\n",
				p, pi[p], plan.IntermediateGroup(p), plan.Round(p))
		}
	}
	if schedule {
		if err := plan.Schedule().Format(os.Stdout); err != nil {
			return err
		}
	}
	if stats {
		st := popsnet.ComputeStats(plan.Schedule())
		fmt.Printf("schedule stats: %d slots, %d sends, %d recvs, %d/%d coupler-slots used (utilization %.2f)\n",
			st.Slots, st.Sends, st.Recvs, st.CouplersUsed, st.Slots*st.MaxCouplers, st.Utilization)
	}
	return nil
}

// runWorkload executes a non-permutation workload through the unified
// Planner.Execute surface and prints its plan summary.
func runWorkload(nw pops.Network, workload string, speaker int, schedule, stats bool) error {
	var w pops.Workload
	switch workload {
	case pops.WorkloadAllToAll:
		w = pops.AllToAll()
	case pops.WorkloadOneToAll:
		w = pops.OneToAll(speaker)
	default:
		return fmt.Errorf("unknown workload %q (want permutation | all-to-all | one-to-all)", workload)
	}
	p, err := pops.NewPlanner(nw.D, nw.G, pops.WithVerify(true))
	if err != nil {
		return err
	}
	plan, err := p.Execute(context.Background(), w)
	if err != nil {
		return err
	}
	fmt.Printf("%v: n=%d processors, %d couplers\n", nw, nw.N(), nw.Couplers())
	switch workload {
	case pops.WorkloadAllToAll:
		fmt.Printf("workload all-to-all: %d requests, degree h = %d, decomposed into %d factors\n",
			len(plan.Reqs), plan.H, len(plan.Factors))
		fmt.Printf("strategy %s: %d slots (= h · OptimalSlots = %d)\n",
			plan.Strategy, plan.SlotCount(), pops.HRelationSlots(nw.D, nw.G, plan.H))
	case pops.WorkloadOneToAll:
		fmt.Printf("workload one-to-all: speaker %d reaches all %d processors\n", plan.Speaker, nw.N())
		fmt.Printf("strategy %s: %d slot (diameter-1 broadcast)\n", plan.Strategy, plan.SlotCount())
	}
	if _, err := plan.Verify(); err != nil {
		return fmt.Errorf("schedule failed simulation: %w", err)
	}
	fmt.Println("schedule verified on the slot-level simulator")
	if schedule {
		if err := plan.Schedule().Format(os.Stdout); err != nil {
			return err
		}
	}
	if stats {
		st := popsnet.ComputeStats(plan.Schedule())
		fmt.Printf("schedule stats: %d slots, %d sends, %d recvs, %d/%d coupler-slots used (utilization %.2f)\n",
			st.Slots, st.Sends, st.Recvs, st.CouplersUsed, st.Slots*st.MaxCouplers, st.Utilization)
	}
	return nil
}

func buildPermutation(nw pops.Network, permSpec, family string, seed int64) ([]int, error) {
	n := nw.N()
	if permSpec != "" {
		parts := strings.Split(permSpec, ",")
		pi := make([]int, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("bad permutation entry %q: %w", p, err)
			}
			pi = append(pi, v)
		}
		if len(pi) != n {
			return nil, fmt.Errorf("permutation has %d entries, network has %d processors", len(pi), n)
		}
		if err := pops.ValidatePermutation(pi); err != nil {
			return nil, err
		}
		return pi, nil
	}
	rng := rand.New(rand.NewSource(seed))
	switch family {
	case "", "random":
		return pops.RandomPermutation(n, rng), nil
	case "derangement":
		return pops.RandomDerangement(n, rng), nil
	case "reversal":
		return pops.VectorReversal(n), nil
	case "rotation":
		return pops.GroupRotation(nw.D, nw.G, 1)
	case "transpose":
		r := 1
		for (r+1)*(r+1) <= n {
			r++
		}
		if r*r != n {
			return nil, fmt.Errorf("transpose needs a square processor count, n=%d", n)
		}
		return pops.Transpose(r, r), nil
	case "identity":
		return pops.IdentityPermutation(n), nil
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}

func printTopology(nw pops.Network) {
	fmt.Printf("%v\n", nw)
	fmt.Printf("  processors: %d (groups of %d)\n", nw.N(), nw.D)
	fmt.Printf("  couplers:   %d (= g²)\n", nw.Couplers())
	fmt.Printf("  diameter:   1 (coupler c(b,a) joins every group pair)\n")
	fmt.Printf("  per-processor: %d transmitters, %d receivers\n", nw.G, nw.G)
	for b := 0; b < nw.G; b++ {
		for a := 0; a < nw.G; a++ {
			fmt.Printf("  c(%d,%d): sources group %d [%d..%d], destinations group %d [%d..%d]\n",
				b, a, a, a*nw.D, a*nw.D+nw.D-1, b, b*nw.D, b*nw.D+nw.D-1)
		}
	}
}
