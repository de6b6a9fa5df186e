// Package core implements the permutation routing algorithm of Mei & Rizzi
// (Theorem 2): a POPS(d, g) network routes any permutation π of its n = d·g
// processors in one slot when d = 1 and 2·⌈d/g⌉ slots when d > 1.
//
// The construction unifies the paper's two cases (1 < d ≤ g and d > g)
// through a single reduction. Build the demand multigraph with one edge per
// packet, from its source group to its destination group; because π is a
// permutation the graph is d-regular on g+g nodes. Color its edges with
// C = max(d, g) colors so that every color class has exactly min(d, g)
// edges (package edgecolor; for d < g this is the balanced coloring of
// Theorem 1, for d ≥ g a plain König 1-factorization). The color c of a
// packet encodes its relay: intermediate group c mod g in round ⌊c/g⌋. Each
// round takes two slots:
//
//	slot 1: every packet of the round is sent from its source to a relay
//	        processor in its intermediate group;
//	slot 2: relays forward the packets to their final destinations.
//
// Properness of the coloring at source groups makes slot 1 coupler-conflict
// free; properness at destination groups makes slot 2 conflict free; the
// exact class size bounds the number of arrivals per group by the number of
// processors. These are precisely invariants (4)–(7) of the paper, and the
// per-packet colors are exactly a fair distribution of the list system
// L(h, i) = group(π(i + h·d)).
//
// Plans are produced either one-shot (PlanRoute) or through a reusable
// Planner that validates the network once and recycles its internal demand
// graph and scratch buffers across calls — the building block of the public
// batch API.
package core

import (
	"fmt"
	"runtime"
	"time"

	"pops/internal/edgecolor"
	"pops/internal/graph"
	"pops/internal/popsnet"
)

// PlanObserver receives one observation per planned workload: the resolved
// strategy that produced the plan, whether it was answered from the plan
// cache, and how long planning (or the cache hit) took. The public layer
// invokes it on every Route/Execute/stream completion; the serving layer
// installs an observer that feeds the per-(d, g, strategy) plan-time table
// behind /stats and /metrics. Implementations must be safe for concurrent
// use and should not block.
type PlanObserver interface {
	ObservePlan(strategy string, cached bool, d time.Duration)
}

// Options configures the planner.
type Options struct {
	// Algorithm selects the edge-coloring backend. The zero value — the
	// default — is EulerSplitDC, the near-linear divide and conquer;
	// RepeatedMatching (Hopcroft–Karp peeling) and Insertion are the
	// Remark 1 alternatives.
	Algorithm edgecolor.Algorithm
	// Verify replays every produced schedule on the slot-level simulator
	// before returning it; a simulation failure becomes a planning error.
	Verify bool
	// Parallelism bounds the public Planner's worker pool: its free list of
	// core planners and RouteBatch's fan-out. Zero or negative means "pick a
	// default" (GOMAXPROCS); a single planner call ignores it.
	Parallelism int
	// PlanCache bounds the fingerprint-keyed plan memoization of the public
	// Planner to this many entries (LRU). Zero or negative disables caching.
	// The cache lives in the public layer; core planners always plan.
	PlanCache int
	// Observer, when non-nil, is notified of every planned workload with its
	// resolved strategy, cache verdict, and measured planning time. Like the
	// cache, observation happens in the public layer; core planners never
	// call it themselves.
	Observer PlanObserver
}

// Workers resolves the Parallelism option to a concrete worker count: the
// option itself when positive, GOMAXPROCS otherwise. The public Planner sizes
// its free list and RouteBatch's fan-out with this.
func (o Options) Workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Canonical names of the routing strategies that can produce a Plan. They
// appear in Plan.Strategy and name the comparison routers of
// internal/strategy.
// StrategyHRelation and StrategyOneToAll name the non-permutation workload
// planners of the unified Execute surface.
const (
	StrategyTheoremTwo    = "theorem2"
	StrategyGreedy        = "greedy"
	StrategyDirectOptimal = "direct-optimal"
	StrategySingleSlot    = "singleslot"
	StrategyAuto          = "auto"
	StrategyHRelation     = "hrelation"
	StrategyOneToAll      = "one-to-all"
	StrategyFaulty        = "faulty-permutation"
)

// Plan is a verified-constructible routing plan for one workload. It is the
// unified result type of every routing strategy and workload kind: the
// Theorem 2 relay router fills Colors/Rounds, direct strategies (greedy,
// direct optimal, single slot) carry only the schedule, h-relation plans
// fill Reqs/H/Factors instead of Pi, and one-to-all plans record the
// Speaker. Strategy records which planner produced the plan, and Verify
// replays the schedule under the matching delivery contract.
// A Theorem 2 plan is its coloring — π and the colors fix every slot — so
// it stores no slots: Schedule writes them afresh on each call. Plans are
// immutable once built and safe to share.
type Plan struct {
	Net      popsnet.Network
	Pi       []int
	Strategy string
	Colors   []int // per-packet relay color; nil for direct (relay-free) plans
	Rounds   int   // ⌈d/g⌉ for relayed plans, 0 for direct ones

	// H-relation section (Strategy == StrategyHRelation): the requests, the
	// relation degree, and Factors[k] — the request indices routed in the
	// k-th permutation round (dummy padding requests excluded), ascending.
	Reqs    []Request
	H       int
	Factors [][]int

	// Speaker is the broadcasting processor of a one-to-all plan.
	Speaker int

	// Faults is the canonical fault set a StrategyFaulty plan routed around.
	// Zero for every other strategy — and for fault requests whose set turned
	// out empty, which delegate to the normal planner (byte-identical plans).
	Faults popsnet.FaultSet

	// fixed is the schedule of plans no coloring describes: broadcasts, d = 1
	// fault plans and FromSchedule plans. codes[k] packs an h-relation's
	// padded request k's factor f and color c as f·max(d, g) + c.
	fixed *popsnet.Schedule
	codes []int32
}

// FromSchedule wraps an already-built schedule as a Plan, recording the
// strategy that produced it. It is how the non-Theorem 2 routers (greedy,
// direct optimal, single slot) adopt the unified result type. pi is copied:
// a Plan owns all memory it references, so callers may reuse their slice.
func FromSchedule(nw popsnet.Network, pi []int, sched *popsnet.Schedule, strategy string) *Plan {
	return &Plan{Net: nw, Pi: copyPerm(pi), Strategy: strategy, fixed: sched}
}

// copyPerm snapshots a caller-provided permutation so Plans never alias
// mutable caller memory (batch services routinely reuse request buffers).
func copyPerm(pi []int) []int {
	return append(make([]int, 0, len(pi)), pi...)
}

// OptimalSlots returns the slot count of Theorem 2: 1 when d = 1, and
// 2·⌈d/g⌉ when d > 1.
func OptimalSlots(d, g int) int {
	if d == 1 {
		return 1
	}
	return 2 * ceilDiv(d, g)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// PlanRoute computes the Theorem 2 routing of permutation pi on POPS(d, g).
// The returned plan's schedule uses exactly OptimalSlots(d, g) slots. For
// routing many permutations on one network shape, prefer a Planner, which
// amortizes validation and scratch allocations across calls.
func PlanRoute(d, g int, pi []int, opts Options) (*Plan, error) {
	pl, err := NewPlanner(d, g, opts)
	if err != nil {
		return nil, err
	}
	return pl.Plan(pi)
}

// classes buckets packets by color in processor order, the order that
// ranks a class onto distinct relays: class c is order[start[c]:start[c+1]].
type classes struct{ order, start []int }

func (cl *classes) sort(colors []int, count int) {
	cl.start = graph.ResizeInts(cl.start, count+1)
	clear(cl.start)
	for _, c := range colors {
		cl.start[c+1]++
	}
	for c := range count {
		cl.start[c+1] += cl.start[c]
	}
	cl.order = graph.ResizeInts(cl.order, len(colors))
	for p, c := range colors {
		cl.order[cl.start[c]] = p
		cl.start[c]++
	}
	copy(cl.start[1:], cl.start[:count])
	cl.start[0] = 0
}

func (cl *classes) class(c int) []int { return cl.order[cl.start[c]:cl.start[c+1]] }

// resize returns s with length n, reusing its storage when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// relaySchedule is the one slot writer of relay plans: it writes class c's
// fragments of slots 2⌊c/g⌋ (source to relay, into first) and 2⌊c/g⌋+1
// (relay to destination, into second), each len(class) long. The class's
// packets, in processor order, take the relays of group c mod g by rank.
func relaySchedule(nw popsnet.Network, pi, class []int, c int, first, second popsnet.Slot) {
	j := c % nw.G
	for rank, p := range class {
		relay := nw.Proc(j, rank)
		dest := pi[p]
		first.Sends[rank] = popsnet.Send{Src: p, DestGroup: j, Packet: p}
		first.Recvs[rank] = popsnet.Recv{Proc: relay, SrcGroup: nw.Group(p)}
		second.Sends[rank] = popsnet.Send{Src: relay, DestGroup: nw.Group(dest), Packet: p}
		second.Recvs[rank] = popsnet.Recv{Proc: dest, SrcGroup: j}
	}
}

// writeRound writes relay round k — classes [k·g, (k+1)·g) of cl side by
// side in slot 2k (out[0]) and slot 2k+1 (out[1]) — reusing their storage.
func writeRound(nw popsnet.Network, pi []int, cl *classes, k int, out []popsnet.Slot) {
	base := cl.start[k*nw.G]
	size := cl.start[(k+1)*nw.G] - base
	for s := range out[:2] {
		out[s].Sends, out[s].Recvs = resize(out[s].Sends, size), resize(out[s].Recvs, size)
	}
	for c := k * nw.G; c < (k+1)*nw.G; c++ {
		a, b := cl.start[c]-base, cl.start[c+1]-base
		relaySchedule(nw, pi, cl.class(c), c, popsnet.Slot{Sends: out[0].Sends[a:b], Recvs: out[0].Recvs[a:b]},
			popsnet.Slot{Sends: out[1].Sends[a:b], Recvs: out[1].Recvs[a:b]})
	}
}

// writeDirect writes the one slot of a d = 1 plan: each processor is its
// own group, and every coupler carries one packet.
func writeDirect(pi []int, out *popsnet.Slot) {
	out.Sends, out.Recvs = resize(out.Sends, len(pi)), resize(out.Recvs, len(pi))
	for p, dst := range pi {
		out.Sends[p] = popsnet.Send{Src: p, DestGroup: dst, Packet: p}
		out.Recvs[p] = popsnet.Recv{Proc: dst, SrcGroup: p}
	}
}

// writeFactor writes one h-relation factor's OptimalSlots slots into out:
// the factor routed as permutation pi by its colors, each send relabeled
// from its source processor to request reqAt[src].
func writeFactor(nw popsnet.Network, pi, colors, reqAt []int, cl *classes, out []popsnet.Slot) {
	if nw.D == 1 {
		writeDirect(pi, &out[0])
	} else {
		cl.sort(colors, len(out)/2*nw.G)
		for k := range len(out) / 2 {
			writeRound(nw, pi, cl, k, out[2*k:])
		}
	}
	for _, slot := range out {
		for i := range slot.Sends {
			slot.Sends[i].Packet = reqAt[slot.Sends[i].Packet]
		}
	}
}

// Schedule returns the plan's slot schedule: written afresh, for the caller
// to keep, on every call — or, for plans with a fixed schedule, that stored
// schedule, which callers must not modify.
func (p *Plan) Schedule() *popsnet.Schedule {
	if p.fixed != nil {
		return p.fixed
	}
	sched := &popsnet.Schedule{Net: p.Net}
	if n := p.SlotCount(); n > 0 {
		sched.Slots = make([]popsnet.Slot, n)
		rs := Replay(p)
		for u := range n / rs.per {
			rs.write(u, sched.Slots[u*rs.per:(u+1)*rs.per])
		}
	}
	return sched
}

// SlotCount returns the number of slots the plan uses, without writing any.
func (p *Plan) SlotCount() int {
	switch {
	case p.fixed != nil:
		return len(p.fixed.Slots)
	case p.Strategy == StrategyHRelation:
		return p.H * OptimalSlots(p.Net.D, p.Net.G)
	case p.Colors != nil:
		return 2 * p.Rounds
	default:
		return 1
	}
}

// Verify replays the schedule on the network simulator and checks that the
// plan's workload was delivered: every packet of a permutation plan at its
// destination π(p), every real request of an h-relation plan at its Dst, and
// the speaker's packet of a one-to-all plan at every processor. It returns
// the execution trace.
func (p *Plan) Verify() (*popsnet.Trace, error) {
	sched := p.Schedule()
	switch {
	case p.Strategy == StrategyFaulty:
		fn, err := p.Faults.Compile(p.Net)
		if err != nil {
			return nil, err
		}
		return popsnet.VerifyPermutationRoutedFaulty(sched, p.Pi, fn)
	case p.Strategy == StrategyHRelation:
		// Packet k (request k, then the dummies) starts at its source.
		all := p.padded()
		home, want := make([]int, len(all)), make([]int, len(all))
		for k, r := range all {
			home[k], want[k] = r.Src, -1
			if k < len(p.Reqs) {
				want[k] = r.Dst
			}
		}
		return popsnet.VerifyDelivery(sched, home, want)
	case p.Strategy == StrategyOneToAll:
		st, tr, err := popsnet.Run(sched)
		if err != nil {
			return nil, err
		}
		for proc := 0; proc < p.Net.N(); proc++ {
			if !st.Holds(proc, p.Speaker) {
				return tr, fmt.Errorf("core: processor %d did not receive the broadcast packet of speaker %d", proc, p.Speaker)
			}
		}
		return tr, nil
	default:
		return popsnet.VerifyPermutationRouted(sched, p.Pi)
	}
}

// IntermediateGroup returns the relay group of packet p in the plan, or -1
// for direct (relay-free) plans.
func (p *Plan) IntermediateGroup(packet int) int {
	if p.Colors == nil {
		return -1
	}
	return p.Colors[packet] % p.Net.G
}

// Round returns the round in which packet p moves, or 0 for direct plans.
func (p *Plan) Round(packet int) int {
	if p.Colors == nil {
		return 0
	}
	return p.Colors[packet] / p.Net.G
}
