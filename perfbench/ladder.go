package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"pops"
	"pops/internal/core"
	"pops/internal/edgecolor"
	"pops/internal/graph"
	"pops/internal/matching"
	"pops/internal/popsnet"
	"pops/internal/service"
	"pops/internal/wire"
	"pops/internal/wirebin"
)

// The layer ladder times each layer's public entry point on the
// workload's own inputs, innermost first. Rung medians are in ms; a
// layer's self time is its rung minus the rung below it on the workload's
// blocking path (its chain).
type ladder struct {
	med   map[string]float64
	chain []string // rungs on the served path, innermost first
	// Wire codec cost per slot, from encoding the workload's schedules.
	encNs, decNs, frameBytes float64
	// Cluster counters of the ladder's proxy, for workloads whose timed
	// phase does not cross it.
	proxy []wire.BackendStats
	// classMix is the latency median of the isolated class probes drawn in
	// mixed-open's class shares; classP50 the median per class.
	classMix float64
	classP50 map[string]float64
}

// rungSet times layer entry points over the same n inputs. Rungs run
// interleaved — input i goes through every rung before input i+1 — so a
// slow spell of the host lands on all rungs alike instead of on whichever
// rung was running, and adjacent rungs stay comparable.
type rungSet struct {
	names []string
	fns   []func(i int) error
}

func (rs *rungSet) add(name string, fn func(i int) error) {
	rs.names = append(rs.names, name)
	rs.fns = append(rs.fns, fn)
}

// run times every rung on n inputs after a short warm-up and stores each
// rung's median, in ms, into med.
func (rs *rungSet) run(n int, med map[string]float64) error {
	xs := make([][]float64, len(rs.fns))
	for i := -min(n, 4); i < n; i++ {
		for k, fn := range rs.fns {
			t0 := time.Now()
			if err := fn(max(i, 0)); err != nil {
				return fmt.Errorf("ladder rung %s: %w", rs.names[k], err)
			}
			if i >= 0 {
				xs[k] = append(xs[k], ms(time.Since(t0)))
			}
		}
	}
	for k, name := range rs.names {
		med[name] = median(xs[k])
	}
	return nil
}

// demandGraph is the group demand multigraph the Theorem 2 planner colors:
// one edge per packet from its source group to its destination group.
func demandGraph(d, g int, pi []int) *graph.Bipartite {
	nw := popsnet.Network{D: d, G: g}
	b := graph.New(g, g)
	for p, t := range pi {
		b.AddEdge(nw.Group(p), nw.Group(t))
	}
	return b
}

// firstFactor returns the permutation the planner sees: pi itself, or the
// first of the h permutations an h-relation input was built from.
func firstFactor(r *request) []int {
	if r.pi != nil {
		return r.pi
	}
	n := r.d * r.g
	pi := make([]int, n)
	for i, q := range r.reqs[:n] {
		pi[i] = q.Dst
	}
	return pi
}

// relation is the h-relation form of r: its requests, or a permutation as
// a 1-relation.
func relation(r *request) []core.Request {
	if r.reqs != nil {
		return r.reqs
	}
	out := make([]core.Request, len(r.pi))
	for s, t := range r.pi {
		out[s] = core.Request{Src: s, Dst: t}
	}
	return out
}

func runLadder(sp *spec, in *inputs) (*ladder, error) {
	lad := &ladder{med: map[string]float64{}, classP50: map[string]float64{}}
	rs := in.ladder
	n := len(rs)
	d, g := rs[0].d, rs[0].g
	hit := rs[0].class == classHit
	stream := rs[0].stream
	var set rungSet

	// matching and edgecolor: the group demand graph of each input.
	pis := make([][]int, n)
	rels := make([][]core.Request, n)
	demands := make([]*graph.Bipartite, n)
	for i, r := range rs {
		pis[i] = firstFactor(r)
		rels[i] = relation(r)
		demands[i] = demandGraph(d, g, pis[i])
	}
	var m matching.Matcher
	out := make([]int, g)
	set.add("matching.perfect_match", func(i int) error {
		_, err := m.PerfectMatchingRegularInto(g, d, demands[i].EdgeList(), out)
		return err
	})
	// Every rung owns its arenas (factorizer, planner), as a serving worker
	// does: a rung sharing one with another would time the other's leftover
	// state instead of its own steady state.
	colors := make([]int, d*g)
	cc := max(d, g)
	for _, a := range []edgecolor.Algorithm{edgecolor.RepeatedMatching, edgecolor.EulerSplitDC, edgecolor.Insertion} {
		f := edgecolor.NewFactorizer()
		set.add("edgecolor.factorize."+a.String(), func(i int) error {
			return f.BalancedInto(colors, demands[i], cc, a)
		})
	}
	var def edgecolor.Algorithm // the planner's default backend
	ff := edgecolor.NewFactorizer()
	set.add("edgecolor.first_factor", func(i int) error {
		_, _, err := ff.StartBalancedCtx(bg, demands[i], cc, def).Next(colors)
		return err
	})

	// core: the planner behind every public entry point.
	var cps [3]*core.Planner
	for k := range cps {
		var err error
		if cps[k], err = core.NewPlanner(d, g, core.Options{}); err != nil {
			return nil, err
		}
	}
	set.add("core.plan", func(i int) error {
		_, err := cps[0].PlanCtx(bg, pis[i])
		return err
	})
	set.add("core.hrelation", func(i int) error {
		_, err := cps[1].PlanHRelation(bg, rels[i])
		return err
	})
	cp := cps[2]
	set.add("core.first_slot", func(i int) error {
		if stream {
			ps, err := cp.StartHRelation(bg, rs[i].reqs)
			if err != nil {
				return err
			}
			ps.Next()
			return ps.Err()
		}
		ps, err := cp.StartPlanCtx(bg, pis[i])
		if err != nil {
			return err
		}
		ps.Next()
		return ps.Err()
	})

	// pops: the public planner, uncached, cached, and streaming.
	cold, err := pops.NewPlanner(d, g)
	if err != nil {
		return nil, err
	}
	cold2, err := pops.NewPlanner(d, g)
	if err != nil {
		return nil, err
	}
	warm, err := pops.NewPlanner(d, g, pops.WithPlanCache(2*n))
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		if _, err := warm.Execute(bg, r.w); err != nil {
			return nil, err
		}
	}
	set.add("pops.execute_cold", func(i int) error {
		_, err := cold.Execute(bg, rs[i].w)
		return err
	})
	set.add("pops.execute_hit", func(i int) error {
		_, err := warm.Execute(bg, rs[i].w)
		return err
	})
	set.add("pops.first_slot", func(i int) error {
		ps, err := cold2.ExecuteStream(bg, rs[i].w)
		if err != nil {
			return err
		}
		defer ps.Close()
		ps.Next()
		return ps.Err()
	})

	// service, http and cluster: a two-backend stack behind the proxy. Its
	// caches hold the inputs when the workload is served from the cache and
	// are off otherwise, so every rung plans the same inputs cold.
	cache := -1
	if hit {
		cache = 0
	}
	st, err := startStack(stackConfig{backends: 2, cacheSize: cache, conns: 1})
	if err != nil {
		return nil, err
	}
	defer st.close()
	direct := &stack{svcs: st.svcs, client: st.direct, ndjson: st.direct}
	if hit {
		for _, r := range rs {
			if err := inproc(st.svcs[0], r); err != nil {
				return nil, err
			}
			if err := st.fill(bg, []*request{r}); err != nil {
				return nil, err
			}
		}
	}
	set.add("service.inproc", func(i int) error { return inproc(st.svcs[0], rs[i]) })
	unary := func(s *stack) func(i int) error {
		return func(i int) error {
			p, err := s.client.Execute(bg, rs[i].d, rs[i].g, rs[i].w)
			if err == nil && p.Error != "" {
				err = fmt.Errorf("%s", p.Error)
			}
			return err
		}
	}
	drain := func(s *stack) func(i int) error {
		return func(i int) error {
			smp := sample{}
			r := *rs[i]
			r.stream = true
			s.do(bg, &r, &smp, time.Now())
			return check(&smp, &r)
		}
	}
	set.add("http.unary", unary(direct))
	set.add("http.stream", drain(direct))
	set.add("http.stream_first_slot", func(i int) error {
		ps, err := st.direct.ExecuteStream(bg, rs[i].d, rs[i].g, rs[i].w)
		if err != nil {
			return err
		}
		defer ps.Close()
		_, err = ps.Next()
		return err
	})
	top, viaProxy := "http.unary", unary(st)
	if stream {
		top, viaProxy = "http.stream", drain(st)
	}
	set.add("cluster.proxy", viaProxy)
	if err := set.run(n, lad.med); err != nil {
		return nil, err
	}
	lad.med["edgecolor.factorize"] = lad.med["edgecolor.factorize."+def.String()]
	lad.med["cluster.hop"] = lad.med["cluster.proxy"] - lad.med[top]
	lad.proxy = st.proxy.Backends()

	// wirebin: encode and decode the workload's own slots.
	if err := lad.codec(cold, rs); err != nil {
		return nil, err
	}

	switch {
	case sp.rate > 0:
		lad.chain = []string{"pops.execute_cold", "service.inproc", "http.unary", "cluster.proxy"}
	case hit:
		lad.chain = []string{"pops.execute_hit", "service.inproc", "http.unary"}
	case stream:
		// core.hrelation stays off the chain: the public planner routes
		// an h-relation's factors on parallel workers, so it can beat the
		// serial core call it wraps.
		lad.chain = []string{"matching.perfect_match", "edgecolor.factorize", "core.plan",
			"pops.execute_cold", "service.inproc", "http.stream"}
	default:
		lad.chain = []string{"matching.perfect_match", "edgecolor.factorize", "core.plan",
			"pops.execute_cold", "service.inproc", "http.unary"}
	}
	return lad, lad.classes(in.probe)
}

// inproc calls the routing service in-process: permutations through the
// admission queue (Route), other workloads directly (Execute).
func inproc(svc *service.Service, r *request) error {
	var res service.Result
	var err error
	if r.w.Kind() == pops.WorkloadPermutation {
		res, err = svc.Route(bg, r.d, r.g, r.pi, "")
	} else {
		res, err = svc.Execute(bg, r.d, r.g, r.w)
	}
	if err == nil {
		err = res.Err
	}
	return err
}

// codec times wirebin's slot encoder and decoder on the schedules of the
// workload's inputs, per slot record.
func (lad *ladder) codec(pl *pops.Planner, rs []*request) error {
	var slots []wire.StreamSlot
	for _, r := range rs[:min(8, len(rs))] {
		plan, err := pl.Execute(bg, r.w)
		if err != nil {
			return err
		}
		for i, s := range plan.Schedule().Slots {
			slots = append(slots, wire.StreamSlot{Slot: i, Color: -1, Final: true, Sends: s.Sends, Recvs: s.Recvs})
		}
	}
	enc := wirebin.GetEncoder()
	defer wirebin.PutEncoder(enc)
	var frames bytes.Buffer
	for i := range slots {
		frames.Write(enc.AppendSlot(&slots[i]))
	}
	lad.frameBytes = float64(frames.Len()) / float64(len(slots))
	var payloads [][]byte
	dec := wirebin.NewDecoder(bytes.NewReader(frames.Bytes()))
	for {
		_, p, err := dec.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		payloads = append(payloads, bytes.Clone(p))
	}
	const rounds = 15
	encNs := make([]float64, rounds)
	decNs := make([]float64, rounds)
	var out wire.StreamSlot
	for k := range encNs {
		t0 := time.Now()
		for i := range slots {
			enc.AppendSlot(&slots[i])
		}
		encNs[k] = float64(time.Since(t0).Nanoseconds()) / float64(len(slots))
		t0 = time.Now()
		for _, p := range payloads {
			if err := wirebin.DecodeSlot(p, &out); err != nil {
				return err
			}
		}
		decNs[k] = float64(time.Since(t0).Nanoseconds()) / float64(len(payloads))
	}
	lad.encNs, lad.decNs = median(encNs), median(decNs)
	return nil
}

// classes sends each request class of mixed-open, one request at a time,
// through a fresh proxy over two backends configured as in mixed-open,
// with the recurring inputs cached first. The isolated latencies give
// each class's cost without queueing, and their median in mixed-open's
// shares is what the open loop would see with no contention.
func (lad *ladder) classes(probe map[string][]*request) error {
	st, err := startStack(stackConfig{backends: 2, cacheSize: mixedCache, conns: 1})
	if err != nil {
		return err
	}
	defer st.close()
	if err := st.fill(bg, probe[classHit]); err != nil {
		return err
	}
	var mix []float64
	for _, c := range mixedClasses {
		var xs []float64
		for _, r := range probe[c] {
			s := sample{}
			st.do(bg, r, &s, time.Now())
			if err := check(&s, r); err != nil {
				return fmt.Errorf("class probe %s: %w", c, err)
			}
			xs = append(xs, s.lat)
		}
		lad.classP50[c] = median(xs)
		for k := 0; k < mixedDeck[c]; k++ {
			mix = append(mix, xs...)
		}
	}
	lad.classMix = median(mix)
	return nil
}

// probeSet generates k requests of every mixed-open class for the class
// probes of the single-class workloads.
func probeSet(rng *rand.Rand, k int) (map[string][]*request, error) {
	fp, err := pops.NewPlanner(warmD, warmG)
	if err != nil {
		return nil, err
	}
	p := map[string][]*request{}
	for _, c := range mixedClasses {
		for i := 0; i < k; i++ {
			r, err := newOfClass(rng, fp, c)
			if err != nil {
				return nil, err
			}
			p[c] = append(p[c], r)
		}
	}
	return p, nil
}
