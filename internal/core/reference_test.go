package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"pops/internal/edgecolor"
	"pops/internal/fairdist"
	"pops/internal/graph"
	"pops/internal/perms"
	"pops/internal/popsnet"
)

// PlanRouteViaListSystem computes the same routing through the paper's
// literal Section 3.1 formalism: build the proper list system
// L(h, i) = group(π(i + h·d)), obtain a fair distribution f by Theorem 1,
// and use f(h, i) as the relay color of packet i + h·d. It exists to
// cross-check the unified demand-graph construction; both produce schedules
// with identical structure.
func PlanRouteViaListSystem(d, g int, pi []int, opts Options) (*Plan, error) {
	nw, err := popsnet.NewNetwork(d, g)
	if err != nil {
		return nil, err
	}
	if err := perms.Validate(pi); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(pi) != nw.N() {
		return nil, fmt.Errorf("core: permutation has length %d, want n = %d", len(pi), nw.N())
	}
	plan := &Plan{Net: nw, Pi: copyPerm(pi), Strategy: StrategyTheoremTwo}
	if d > 1 {
		ls, err := fairdist.FromPermutation(d, g, pi)
		if err != nil {
			return nil, err
		}
		f, err := ls.FairDistribution(opts.Algorithm)
		if err != nil {
			return nil, fmt.Errorf("core: fair distribution: %w", err)
		}
		colors := make([]int, nw.N())
		for h := 0; h < g; h++ {
			for i := 0; i < d; i++ {
				colors[i+h*d] = f[h][i]
			}
		}
		plan, err = planFromColors(nw, pi, colors)
		if err != nil {
			return nil, err
		}
	}
	if opts.Verify {
		if _, err := plan.Verify(); err != nil {
			return nil, fmt.Errorf("core: schedule failed verification: %w", err)
		}
	}
	return plan, nil
}

// planFromColors is the reference plan builder: it checks equations
// (4)–(7) for every color class in one batch pass, where PlanStream checks
// each class as it is peeled; FuzzStreamMatchesReference holds the two to
// deep equality. Callers pass d > 1 and a validated pi.
func planFromColors(nw popsnet.Network, pi, colors []int) (*Plan, error) {
	if len(colors) != nw.N() {
		return nil, fmt.Errorf("core: %d colors for %d packets", len(colors), nw.N())
	}
	colorCount := max(nw.D, nw.G)
	for p, c := range colors {
		if c < 0 || c >= colorCount {
			return nil, fmt.Errorf("core: packet %d has color %d outside [0,%d)", p, c, colorCount)
		}
	}
	var cl classes
	cl.sort(colors, colorCount)
	pl := &Planner{nw: nw, seenGroup: make([]bool, nw.G)}
	for c := range colorCount {
		if err := pl.checkClass(pi, cl.class(c), c); err != nil {
			return nil, err
		}
	}
	return &Plan{Net: nw, Pi: copyPerm(pi), Strategy: StrategyTheoremTwo, Colors: colors, Rounds: ceilDiv(colorCount, nw.G)}, nil
}

// referenceHRelation is the h-relation planner's earlier factor listing:
// each König factor's request ids are sorted as the factor is routed, and
// its real (non-dummy) ids listed from the sorted copy. A separate
// Factorizer streams the same padded request graph with pl's algorithm, and
// each factor is routed by pl's public Plan, so Factors, codes and the
// schedule must equal what PlanHRelation and StartHRelation build, which
// count Factors out of codes instead; TestHRelationFactorsMatchReference
// and FuzzHRelationMatchesReference hold them to it.
func referenceHRelation(t testing.TB, pl *Planner, reqs []Request) *Plan {
	t.Helper()
	nw := pl.nw
	n := nw.N()
	src, dst := make([]int, n), make([]int, n)
	for _, r := range reqs {
		src[r.Src]++
		dst[r.Dst]++
	}
	h := max(slices.Max(src), slices.Max(dst))
	plan := &Plan{Net: nw, Strategy: StrategyHRelation, Reqs: slices.Clone(reqs), H: h}
	if h == 0 {
		return plan
	}
	all := padRequests(nil, reqs, h, src, dst)
	demand := graph.New(n, n)
	for _, r := range all {
		demand.AddEdge(r.Src, r.Dst)
	}
	stream := edgecolor.NewFactorizer().StartCtx(context.Background(), demand, pl.opts.Algorithm)
	factorOf := make([]int, len(all))
	plan.Factors = make([][]int, h)
	plan.codes = make([]int32, len(all))
	pi := make([]int, n)
	for {
		k, ok, err := stream.Next(factorOf)
		if err != nil {
			t.Fatalf("%v: reference factorization: %v", nw, err)
		}
		if !ok {
			break
		}
		ids := slices.Clone(stream.Factor())
		slices.Sort(ids)
		real := make([]int, 0, len(ids))
		for _, id := range ids {
			pi[all[id].Src] = all[id].Dst
			if id < len(reqs) {
				real = append(real, id)
			}
		}
		plan.Factors[k] = real
		sub, err := pl.Plan(pi)
		if err != nil {
			t.Fatalf("%v: reference factor %d: %v", nw, k, err)
		}
		for _, id := range ids {
			c := 0
			if sub.Colors != nil {
				c = sub.Colors[all[id].Src]
			}
			plan.codes[id] = int32(k*max(nw.D, nw.G) + c)
		}
	}
	return plan
}
