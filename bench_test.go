package pops

// Benchmark harness: one benchmark per experiment of DESIGN.md's index.
// Run with: go test -bench=. -benchmem
//
// E1  — planning random permutations across network shapes
// E7  — Theorem 2 vs greedy baseline on the adversarial workload
// E10 — Remark 1: edge-coloring backend comparison
// E11 — planning-cost scaling at fixed d/g ratios
// plus simulator replay and application-level (Cannon matmul, hypercube
// scan) benchmarks for E12.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"pops/internal/core"
	"pops/internal/hypercube"
	"pops/internal/matmul"
	"pops/internal/perms"
	"pops/internal/popsnet"
)

func benchShapes() []struct{ d, g int } {
	return []struct{ d, g int }{
		{1, 64}, {8, 8}, {4, 16}, {16, 4}, {32, 32}, {64, 16}, {16, 64},
	}
}

// BenchmarkE1PlanRandom measures end-to-end planning (demand graph, balanced
// coloring, schedule construction) for random permutations.
func BenchmarkE1PlanRandom(b *testing.B) {
	for _, s := range benchShapes() {
		rng := rand.New(rand.NewSource(1))
		pi := perms.Random(s.d*s.g, rng)
		b.Run(fmt.Sprintf("d=%d/g=%d/n=%d", s.d, s.g, s.d*s.g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := core.PlanRoute(s.d, s.g, pi, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if p.SlotCount() != core.OptimalSlots(s.d, s.g) {
					b.Fatal("wrong slot count")
				}
			}
		})
	}
}

// BenchmarkE7Theorem2VsGreedy compares planner and baseline on the
// group-rotation adversary where the separation is Θ(g).
func BenchmarkE7Theorem2VsGreedy(b *testing.B) {
	d, g := 32, 32
	pi, err := perms.GroupRotation(d, g, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("theorem2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := core.PlanRoute(d, g, pi, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if p.SlotCount() != 2 {
				b.Fatal("wrong slot count")
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		greedy, err := NewGreedy(d, g)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := greedy.Route(pi); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlannerReuse compares a fresh Planner per call (network
// validation and fresh scratch buffers every time) against a reused one,
// which validates once and recycles its demand graph and invariant tables.
// The planner side must show fewer allocs/op.
func BenchmarkPlannerReuse(b *testing.B) {
	ctx := context.Background()
	for _, s := range []struct{ d, g int }{{8, 8}, {32, 32}, {16, 64}} {
		rng := rand.New(rand.NewSource(6))
		pi := perms.Random(s.d*s.g, rng)
		w := Permutation(pi)
		b.Run(fmt.Sprintf("route-percall/d=%d/g=%d", s.d, s.g), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := execute(s.d, s.g, Permutation(pi)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("planner-reuse/d=%d/g=%d", s.d, s.g), func(b *testing.B) {
			p, err := NewPlanner(s.d, s.g)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Execute(ctx, w); err != nil { // warm the buffer free list
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Execute(ctx, w); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("planner-nocopy/d=%d/g=%d", s.d, s.g), func(b *testing.B) {
			p, err := NewPlanner(s.d, s.g, WithPlanNoCopy())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Execute(ctx, w); err != nil { // warm the buffer free list
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Execute(ctx, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouteBatch plans a fixed batch of permutations per iteration:
// once per-call on a fresh Planner each (the pre-Planner API shape), then
// through Planner.RouteBatch at parallelism 1, 4, and GOMAXPROCS. The batch
// path must show fewer allocs/op than the per-call path.
func BenchmarkRouteBatch(b *testing.B) {
	const d, g, batch = 16, 16, 64
	rng := rand.New(rand.NewSource(7))
	pis := make([][]int, batch)
	for i := range pis {
		pis[i] = perms.Random(d*g, rng)
	}
	b.Run("route-percall", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, pi := range pis {
				if _, err := execute(d, g, Permutation(pi)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	parallelisms := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		parallelisms = append(parallelisms, p)
	}
	for _, par := range parallelisms {
		b.Run(fmt.Sprintf("batch/parallel=%d", par), func(b *testing.B) {
			p, err := NewPlanner(d, g, WithParallelism(par))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.RouteBatch(pis); err != nil { // warm the free list
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.RouteBatch(pis); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTimeToFirstSlot measures the streaming pipeline's headline win:
// time until the first slot fragment of a plan is usable. route-full is the
// baseline — a batch Execute call, whose first slot is only ready when the
// whole plan is; stream-first-slot runs ExecuteStream until the first Next
// returns and abandons the stream (Close); stream-collect drains the stream
// to the finished plan, bounding the streaming overhead against route-full.
func BenchmarkTimeToFirstSlot(b *testing.B) {
	ctx := context.Background()
	shapes := []struct{ d, g int }{{8, 8}, {8, 64}, {32, 8}, {32, 64}, {16, 64}}
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(21))
		w := Permutation(perms.Random(s.d*s.g, rng))
		newPlanner := func(b *testing.B) *Planner {
			p, err := NewPlanner(s.d, s.g)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Execute(ctx, w); err != nil { // warm the worker free list
				b.Fatal(err)
			}
			return p
		}
		b.Run(fmt.Sprintf("route-full/d=%d/g=%d", s.d, s.g), func(b *testing.B) {
			p := newPlanner(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Execute(ctx, w); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("stream-first-slot/d=%d/g=%d", s.d, s.g), func(b *testing.B) {
			p := newPlanner(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps, err := p.ExecuteStream(ctx, w)
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := ps.Next(); !ok {
					b.Fatal("no first fragment")
				}
				ps.Close()
			}
		})
		b.Run(fmt.Sprintf("stream-collect/d=%d/g=%d", s.d, s.g), func(b *testing.B) {
			p := newPlanner(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps, err := p.ExecuteStream(ctx, w)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ps.Collect(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHRelation measures the pooled h-relation planning of the
// Execute surface against a fresh Planner per call (which rebuilds planner,
// arenas and demand graph every call), plus the streaming
// pipeline's time-to-first-slot: execute-stream-first-slot runs
// ExecuteStream(HRelation) until the first Next returns and abandons the
// stream, so its ns/op is the latency until the first routed slot is usable
// — the ISSUE bar is < 25% of execute-pooled at d=16, g=64.
func BenchmarkHRelation(b *testing.B) {
	ctx := context.Background()
	for _, s := range []struct{ d, g, h int }{{8, 8, 4}, {16, 64, 8}} {
		rng := rand.New(rand.NewSource(29))
		n := s.d * s.g
		reqs := make([]Request, 0, n*s.h)
		for k := 0; k < s.h; k++ {
			for i, v := range perms.Random(n, rng) {
				reqs = append(reqs, Request{Src: i, Dst: v})
			}
		}
		newPlanner := func(b *testing.B) *Planner {
			p, err := NewPlanner(s.d, s.g)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Execute(ctx, HRelation(reqs)); err != nil { // warm the arenas
				b.Fatal(err)
			}
			return p
		}
		b.Run(fmt.Sprintf("route-percall/d=%d/g=%d/h=%d", s.d, s.g, s.h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := execute(s.d, s.g, HRelation(reqs)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("execute-pooled/d=%d/g=%d/h=%d", s.d, s.g, s.h), func(b *testing.B) {
			p := newPlanner(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Execute(ctx, HRelation(reqs)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("execute-stream-first-slot/d=%d/g=%d/h=%d", s.d, s.g, s.h), func(b *testing.B) {
			p := newPlanner(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps, err := p.ExecuteStream(ctx, HRelation(reqs))
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := ps.Next(); !ok {
					b.Fatal("no first fragment")
				}
				ps.Close()
			}
		})
		b.Run(fmt.Sprintf("execute-stream-collect/d=%d/g=%d/h=%d", s.d, s.g, s.h), func(b *testing.B) {
			p := newPlanner(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps, err := p.ExecuteStream(ctx, HRelation(reqs))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ps.Collect(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10Factorize compares the three 1-factorization backends on the
// square (d = g) planning workload — the Remark 1 ablation. Beside random
// permutations it plans two structured ones at g = 128, transpose and bit
// reversal, whose demand graphs are the hard cases for insertion.
func BenchmarkE10Factorize(b *testing.B) {
	bitRev, err := perms.BitReversal(14) // n = 128·128
	if err != nil {
		b.Fatal(err)
	}
	structured := []struct {
		name string
		pi   []int
	}{
		{"transpose", perms.Transpose(128, 128)},
		{"bit-reversal", bitRev.Permutation()},
	}
	run := func(name string, algo Algorithm, g int, pi []int) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PlanRoute(g, g, pi, core.Options{Algorithm: algo}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, algo := range []Algorithm{RepeatedMatching, EulerSplitDC, Insertion} {
		for _, g := range []int{32, 128, 512} {
			rng := rand.New(rand.NewSource(2))
			run(fmt.Sprintf("%v/g=%d", algo, g), algo, g, perms.Random(g*g, rng))
		}
		for _, s := range structured {
			run(fmt.Sprintf("%v/%s/g=128", algo, s.name), algo, 128, s.pi)
		}
	}
}

// BenchmarkE11PlanScaling sweeps n at fixed d/g ratios with the default
// backend (the paper's O(g³) / O(n log d) complexity discussion).
func BenchmarkE11PlanScaling(b *testing.B) {
	type shape struct {
		name string
		d, g int
	}
	var shapes []shape
	for _, g := range []int{32, 64, 128, 256} {
		shapes = append(shapes, shape{fmt.Sprintf("d=g/g=%d", g), g, g})
	}
	for _, g := range []int{16, 32, 64} {
		shapes = append(shapes, shape{fmt.Sprintf("d=4g/g=%d", g), 4 * g, g})
		shapes = append(shapes, shape{fmt.Sprintf("g=4d/d=%d", g), g, 4 * g})
	}
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(3))
		pi := perms.Random(s.d*s.g, rng)
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PlanRoute(s.d, s.g, pi, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorReplay measures the popsnet oracle itself: replaying and
// conflict-checking a planned schedule.
func BenchmarkSimulatorReplay(b *testing.B) {
	for _, s := range []struct{ d, g int }{{8, 8}, {32, 32}, {64, 16}} {
		rng := rand.New(rand.NewSource(4))
		pi := perms.Random(s.d*s.g, rng)
		p, err := core.PlanRoute(s.d, s.g, pi, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sched := p.Schedule()
		b.Run(fmt.Sprintf("d=%d/g=%d", s.d, s.g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := popsnet.VerifyPermutationRouted(sched, pi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12Matmul measures Cannon's algorithm end to end (planning +
// verified replay of every data movement).
func BenchmarkE12Matmul(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := 8
	a := make([][]int64, m)
	bb := make([][]int64, m)
	for i := 0; i < m; i++ {
		a[i] = make([]int64, m)
		bb[i] = make([]int64, m)
		for j := 0; j < m; j++ {
			a[i][j] = int64(rng.Intn(10))
			bb[i][j] = int64(rng.Intn(10))
		}
	}
	b.Run(fmt.Sprintf("m=%d/POPS(8,8)", m), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := matmul.Multiply(m, 8, 8, a, bb, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Slots != matmul.PredictedSlots(m, 8, 8) {
				b.Fatal("slot mismatch")
			}
		}
	})
}

// BenchmarkE12HypercubeScan measures a full prefix-sum scan on a simulated
// hypercube, including all verified routings.
func BenchmarkE12HypercubeScan(b *testing.B) {
	bits, d, g := 6, 8, 8
	vals := make([]int64, 1<<bits)
	for i := range vals {
		vals[i] = int64(i)
	}
	b.Run(fmt.Sprintf("bits=%d/POPS(%d,%d)", bits, d, g), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := hypercube.New(bits, d, g, nil, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Load(vals); err != nil {
				b.Fatal(err)
			}
			if err := m.PrefixSum(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBroadcast measures the one-slot one-to-all primitive.
func BenchmarkBroadcast(b *testing.B) {
	nw, err := NewNetwork(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := popsnet.OneToAll(nw, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultyPermutation measures fault-aware planning across the bench
// shapes: the Theorem 2 coloring plus the repair of every color class touched
// by the seeded four-coupler dead set (see TestFaultyPlanSlotBound for the
// slot-count budget these plans stay within).
func BenchmarkFaultyPermutation(b *testing.B) {
	ctx := context.Background()
	for _, s := range benchShapes() {
		rng := rand.New(rand.NewSource(int64(s.d*31 + s.g)))
		pi := perms.Random(s.d*s.g, rng)
		fs := seededFaults(s.g, rng)
		p, err := NewPlanner(s.d, s.g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("d=%d/g=%d/n=%d", s.d, s.g, s.d*s.g), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Execute(ctx, FaultyPermutation(pi, fs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
