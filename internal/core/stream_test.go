package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"pops/internal/edgecolor"
	"pops/internal/graph"
	"pops/internal/perms"
	"pops/internal/popsnet"
)

// streamShapes spans both paper cases (1 < d ≤ g and d > g), the direct
// d = 1 network, and shapes whose last round is partial (g ∤ colorCount).
func streamShapes() []struct{ d, g int } {
	return []struct{ d, g int }{
		{1, 6}, {2, 2}, {3, 3}, {2, 8}, {4, 16}, {8, 4}, {12, 8}, {5, 3}, {16, 4},
		// d < g with d ∤ g: the balanced coloring swaps alternating paths.
		{3, 8}, {5, 7}, {6, 9}, {12, 64},
	}
}

// referencePlan builds pi's Theorem 2 plan without PlanStream: a separate
// Factorizer colors the same demand graph in one batch BalancedInto call,
// and planFromColors lays the schedule out. For d = 1 the reference is the
// direct one-slot schedule.
func referencePlan(t testing.TB, nw popsnet.Network, pi []int, algo edgecolor.Algorithm) *Plan {
	t.Helper()
	if nw.D == 1 {
		var slot popsnet.Slot
		for p, dst := range pi {
			slot.Sends = append(slot.Sends, popsnet.Send{Src: p, DestGroup: dst, Packet: p})
			slot.Recvs = append(slot.Recvs, popsnet.Recv{Proc: dst, SrcGroup: p})
		}
		sched := &popsnet.Schedule{Net: nw, Slots: []popsnet.Slot{slot}}
		return &Plan{Net: nw, Pi: copyPerm(pi), Strategy: StrategyTheoremTwo, fixed: sched}
	}
	demand := graph.New(nw.G, nw.G)
	for p := range pi {
		demand.AddEdge(nw.Group(p), nw.Group(pi[p]))
	}
	colors := make([]int, nw.N())
	if err := edgecolor.NewFactorizer().BalancedInto(colors, demand, max(nw.D, nw.G), algo); err != nil {
		t.Fatalf("%v: reference coloring: %v", nw, err)
	}
	plan, err := planFromColors(nw, pi, colors)
	if err != nil {
		t.Fatalf("%v: reference build: %v", nw, err)
	}
	return plan
}

// checkStreamMatchesReference collects pi's stream on pl and requires it to
// be deep-equal to referencePlan: permutation, colors, rounds, strategy and
// every slot of the schedule.
func checkStreamMatchesReference(t testing.TB, pl *Planner, pi []int, algo edgecolor.Algorithm) {
	t.Helper()
	nw := pl.nw
	ps, err := pl.StartPlanCtx(context.Background(), pi)
	if err != nil {
		t.Fatalf("%v %v: StartPlanCtx: %v", algo, nw, err)
	}
	got, err := ps.Collect()
	if err != nil {
		t.Fatalf("%v %v: Collect: %v", algo, nw, err)
	}
	want := referencePlan(t, nw, pi, algo)
	if !reflect.DeepEqual(got.Pi, want.Pi) || !reflect.DeepEqual(got.Colors, want.Colors) ||
		got.Rounds != want.Rounds || got.Strategy != want.Strategy || got.Net != want.Net {
		t.Fatalf("%v %v pi=%v: plan metadata diverges from the reference", algo, nw, pi)
	}
	if !reflect.DeepEqual(got.Schedule().Slots, want.Schedule().Slots) {
		t.Fatalf("%v %v pi=%v: schedule diverges from the reference", algo, nw, pi)
	}
}

// TestStartPlanCollectMatchesReference holds the streaming planner — which
// Plan and PlanCtx drain — to the independent batch reference across
// backends, shapes and seeds.
func TestStartPlanCollectMatchesReference(t *testing.T) {
	for _, algo := range []edgecolor.Algorithm{edgecolor.RepeatedMatching, edgecolor.EulerSplitDC, edgecolor.Insertion} {
		for _, s := range streamShapes() {
			pl, err := NewPlanner(s.d, s.g, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 3; seed++ {
				checkStreamMatchesReference(t, pl, perms.Random(s.d*s.g, rand.New(rand.NewSource(seed))), algo)
			}
		}
	}
}

// FuzzStreamMatchesReference is the native-fuzzer form of
// TestStartPlanCollectMatchesReference over fuzzer-chosen shapes, backends
// and permutation seeds.
func FuzzStreamMatchesReference(f *testing.F) {
	// Seeds are (d−1, g−1, backend, seed): POPS(3,3), (2,8), (12,8), (1,6).
	f.Add(uint8(2), uint8(2), uint8(0), int64(1))
	f.Add(uint8(1), uint8(7), uint8(1), int64(2))
	f.Add(uint8(11), uint8(7), uint8(2), int64(3))
	f.Add(uint8(0), uint8(5), uint8(0), int64(4))
	algos := []edgecolor.Algorithm{edgecolor.RepeatedMatching, edgecolor.EulerSplitDC, edgecolor.Insertion}
	f.Fuzz(func(t *testing.T, dSeed, gSeed, algoSeed uint8, seed int64) {
		d, g := int(dSeed)%16+1, int(gSeed)%16+1
		algo := algos[int(algoSeed)%len(algos)]
		pl, err := NewPlanner(d, g, Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		checkStreamMatchesReference(t, pl, perms.Random(d*g, rand.New(rand.NewSource(seed))), algo)
	})
}

// TestPlanStreamFragments walks the fragments of one stream and checks the
// streaming contract: every fragment lands inside its declared slot, covers
// it exactly once across the stream, and the Final flag fires exactly when
// its slot has been fully delivered.
func TestPlanStreamFragments(t *testing.T) {
	for _, s := range streamShapes() {
		pl, err := NewPlanner(s.d, s.g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pi := perms.Random(s.d*s.g, rand.New(rand.NewSource(7)))
		ps, err := pl.StartPlanCtx(context.Background(), pi)
		if err != nil {
			t.Fatal(err)
		}
		covered := make([]int, ps.SlotCount())
		finals := make([]bool, ps.SlotCount())
		fragments := 0
		for {
			frag, ok := ps.Next()
			if !ok {
				break
			}
			fragments++
			if frag.Slot < 0 || frag.Slot >= ps.SlotCount() {
				t.Fatalf("d=%d g=%d: fragment slot %d outside schedule", s.d, s.g, frag.Slot)
			}
			if len(frag.Sends) != len(frag.Recvs) || len(frag.Sends) == 0 {
				t.Fatalf("d=%d g=%d: fragment with %d sends, %d recvs", s.d, s.g, len(frag.Sends), len(frag.Recvs))
			}
			covered[frag.Slot] += len(frag.Sends)
			if finals[frag.Slot] {
				t.Fatalf("d=%d g=%d: slot %d received a fragment after Final", s.d, s.g, frag.Slot)
			}
			if frag.Final {
				finals[frag.Slot] = true
			}
		}
		if err := ps.Err(); err != nil {
			t.Fatal(err)
		}
		if fragments != ps.FragmentCount() {
			t.Fatalf("d=%d g=%d: %d fragments, want %d", s.d, s.g, fragments, ps.FragmentCount())
		}
		plan := ps.Plan()
		if plan == nil {
			t.Fatalf("d=%d g=%d: no plan after exhaustion", s.d, s.g)
		}
		for i, slot := range plan.Schedule().Slots {
			if covered[i] != len(slot.Sends) {
				t.Fatalf("d=%d g=%d: slot %d covered by %d of %d sends", s.d, s.g, i, covered[i], len(slot.Sends))
			}
			if !finals[i] {
				t.Fatalf("d=%d g=%d: slot %d never marked Final", s.d, s.g, i)
			}
		}
		// The assembled schedule must route pi.
		if _, err := popsnet.VerifyPermutationRouted(plan.Schedule(), pi); err != nil {
			t.Fatalf("d=%d g=%d: %v", s.d, s.g, err)
		}
	}
}

// TestStartPlanValidation mirrors Plan's validation on the streaming entry.
func TestStartPlanValidation(t *testing.T) {
	pl, err := NewPlanner(2, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.StartPlanCtx(context.Background(), []int{0, 1, 2}); err == nil {
		t.Fatal("short permutation accepted")
	}
	if _, err := pl.StartPlanCtx(context.Background(), []int{0, 0, 1, 2, 3, 3}); err == nil {
		t.Fatal("non-permutation accepted")
	}
}

// TestStartPlanVerifyOption pins that Options.Verify replays the collected
// schedule, matching the batch path's behavior.
func TestStartPlanVerifyOption(t *testing.T) {
	pl, err := NewPlanner(4, 4, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	pi := perms.Random(16, rand.New(rand.NewSource(9)))
	ps, err := pl.StartPlanCtx(context.Background(), pi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Collect(); err != nil {
		t.Fatal(err)
	}
}

// reassemble drains a stream through next, copying every fragment to its
// Offset within its slot as it arrives — a fragment is valid only until the
// following Next — and returns the rebuilt slots.
func reassemble(next func() (StreamedSlot, bool), slotCount int) []popsnet.Slot {
	slots := make([]popsnet.Slot, slotCount)
	for {
		frag, ok := next()
		if !ok {
			return slots
		}
		s := &slots[frag.Slot]
		if grow := frag.Offset + len(frag.Sends) - len(s.Sends); grow > 0 {
			s.Sends = append(s.Sends, make([]popsnet.Send, grow)...)
			s.Recvs = append(s.Recvs, make([]popsnet.Recv, grow)...)
		}
		copy(s.Sends[frag.Offset:], frag.Sends)
		copy(s.Recvs[frag.Offset:], frag.Recvs)
	}
}

// TestFragmentsValidUntilNext pins the fragment lifetime. Every stream
// writes its fragments into a buffer it reuses, and no plan stores its
// slots, so a consumer that copies each fragment as it arrives must rebuild
// exactly the collected plan's Schedule: for permutation streams on every
// backend and shape, for h-relation streams (padding included), and for
// replays of both finished plans.
func TestFragmentsValidUntilNext(t *testing.T) {
	ctx := context.Background()
	for _, algo := range []edgecolor.Algorithm{edgecolor.RepeatedMatching, edgecolor.EulerSplitDC, edgecolor.Insertion} {
		for i, s := range streamShapes() {
			pl, err := NewPlanner(s.d, s.g, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(i)))
			ps, err := pl.StartPlanCtx(ctx, perms.Random(s.d*s.g, rng))
			if err != nil {
				t.Fatal(err)
			}
			streamed := reassemble(ps.Next, ps.SlotCount())
			hs, err := pl.StartHRelation(ctx, randomHRelation(s.d*s.g, 3, rng)[1:])
			if err != nil {
				t.Fatal(err)
			}
			hStreamed := reassemble(hs.Next, hs.SlotCount())
			for _, c := range []struct {
				name  string
				plan  *Plan
				slots []popsnet.Slot
				err   error
			}{{"permutation", ps.Plan(), streamed, ps.Err()}, {"h-relation", hs.Plan(), hStreamed, hs.Err()}} {
				if c.err != nil || c.plan == nil {
					t.Fatalf("%v %v %s: stream ended with plan %v, err %v", algo, pl.nw, c.name, c.plan, c.err)
				}
				want := c.plan.Schedule().Slots
				if !reflect.DeepEqual(c.slots, want) {
					t.Fatalf("%v %v %s: copied fragments diverge from the plan's schedule", algo, pl.nw, c.name)
				}
				rs := Replay(c.plan)
				if got := reassemble(rs.Next, rs.SlotCount()); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v %v %s: copied replay slots diverge from the plan's schedule", algo, pl.nw, c.name)
				}
			}
		}
	}
}
