package core

import (
	"context"
	"fmt"

	"pops/internal/edgecolor"
	"pops/internal/obs"
	"pops/internal/perms"
	"pops/internal/popsnet"
)

// UnroutableError reports that a permutation cannot be routed on the faulted
// network: some packet's source/destination group pair has no surviving relay
// path. It is the one way PlanFaulty fails on a valid input — any lesser
// fault load degrades the plan's slot count instead.
type UnroutableError struct {
	Net      popsnet.Network
	Packet   int // an example unroutable packet
	SrcGroup int
	DstGroup int
	// SeveredSrc / SeveredDst single out the total-loss cases: every transmit
	// coupler of the source group, or every receive coupler of the
	// destination group, is dead. A dead group always severs itself, so any
	// FaultSet naming a dead group makes every permutation unroutable.
	SeveredSrc bool
	SeveredDst bool
}

func (e *UnroutableError) Error() string {
	msg := fmt.Sprintf("core: %v: packet %d (group %d → group %d) has no alive relay path",
		e.Net, e.Packet, e.SrcGroup, e.DstGroup)
	switch {
	case e.SeveredSrc:
		msg += fmt.Sprintf("; source group %d is fully severed (every coupler c(·,%d) is dead)", e.SrcGroup, e.SrcGroup)
	case e.SeveredDst:
		msg += fmt.Sprintf("; destination group %d is fully severed (every coupler c(%d,·) is dead)", e.DstGroup, e.DstGroup)
	}
	return msg
}

// PlanFaulty computes a routing of pi that never drives a dead coupler of
// fs. It starts from the normal Theorem 2 balanced coloring and repairs only
// the color classes touching dead hardware: first by moving broken packets
// into classes with slack, then by Kempe-chain component flips, finally by
// appending overflow rounds (two slots each) when no in-schedule repair
// exists — plans degrade in slot count, never fail, unless some packet's
// group pair has no surviving relay path at all, which is reported as a
// typed *UnroutableError. An empty fault set delegates to the normal planner
// and returns a byte-identical plan.
func (pl *Planner) PlanFaulty(ctx context.Context, pi []int, fs popsnet.FaultSet) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nw := pl.nw
	if len(pi) != nw.N() {
		return nil, fmt.Errorf("core: permutation has length %d, want n = %d", len(pi), nw.N())
	}
	if err := perms.ValidateInto(pi, pl.seen); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	fs = fs.Canonical()
	fn, err := fs.Compile(nw)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if fn.DeadCount() == 0 {
		return pl.PlanCtx(ctx, pi)
	}
	if err := checkRoutable(nw, pi, fn); err != nil {
		return nil, err
	}

	// The whole fault path — base coloring plus the repair passes — is the
	// fault-repair phase on the trace span; the normal-planner delegation
	// above records plain factorize time instead.
	sp := obs.SpanFromContext(ctx)
	sp.Begin(obs.PhaseFaultRepair)
	var plan *Plan
	if nw.D == 1 {
		plan, err = pl.planFaultyDirect(pi, fs, fn)
	} else {
		plan, err = pl.planFaultyRelay(ctx, pi, fs, fn)
	}
	sp.End()
	return pl.verified(ctx, plan, err)
}

// checkRoutable rejects up front any packet whose group pair survives on no
// relay: the repair passes below only ever move packets between relays, so
// existence of an alive relay per pair is exactly the feasibility condition.
// For d = 1 a packet may instead ride its direct coupler c(dst, src).
func checkRoutable(nw popsnet.Network, pi []int, fn *popsnet.FaultyNetwork) error {
	g := nw.G
	verdict := make([]int8, g*g) // (a*g + b) -> 0 unknown, 1 routable, -1 not
	for p, dst := range pi {
		a, b := nw.Group(p), nw.Group(dst)
		switch verdict[a*g+b] {
		case 1:
			continue
		case 0:
			if nw.D == 1 && !fn.Dead(b, a) {
				verdict[a*g+b] = 1
				continue
			}
			if _, ok := fn.AliveRelay(a, b); ok {
				verdict[a*g+b] = 1
				continue
			}
			verdict[a*g+b] = -1
		}
		return &UnroutableError{
			Net: nw, Packet: p, SrcGroup: a, DstGroup: b,
			SeveredSrc: fn.SeveredSource(a), SeveredDst: fn.SeveredDest(b),
		}
	}
	return nil
}

// planFaultyDirect is the d = 1 fault case. The fault-free plan is a single
// direct slot (each processor is its own group); packets whose direct
// coupler died are carried by appended two-slot relay rounds instead, one
// packet per relay group per round (class capacity min(d, g) = 1).
func (pl *Planner) planFaultyDirect(pi []int, fs popsnet.FaultSet, fn *popsnet.FaultyNetwork) (*Plan, error) {
	nw := pl.nw
	n := nw.N()
	slot := popsnet.Slot{}
	var broken []int
	for p := 0; p < n; p++ {
		if fn.Dead(pi[p], p) { // groups == processors when d = 1
			broken = append(broken, p)
			continue
		}
		slot.Sends = append(slot.Sends, popsnet.Send{Src: p, DestGroup: pi[p], Packet: p})
		slot.Recvs = append(slot.Recvs, popsnet.Recv{Proc: pi[p], SrcGroup: p})
	}
	sched := &popsnet.Schedule{Net: nw, Slots: []popsnet.Slot{slot}}

	// Greedy round packing: each broken packet takes the first round where
	// some alive relay of its pair is still unclaimed. checkRoutable
	// guarantees at least one alive relay per pair, so a fresh round always
	// admits the packet and the loop terminates.
	type hop struct{ p, relay int }
	var rounds [][]hop
	used := make([][]bool, 0, 4) // round -> relay group claimed
	for _, p := range broken {
		placed := false
		for r := range rounds {
			for j := 0; j < nw.G && !placed; j++ {
				if !used[r][j] && !fn.Dead(j, p) && !fn.Dead(pi[p], j) {
					rounds[r] = append(rounds[r], hop{p: p, relay: j})
					used[r][j] = true
					placed = true
				}
			}
			if placed {
				break
			}
		}
		if !placed {
			j, _ := fn.AliveRelay(p, pi[p])
			rounds = append(rounds, []hop{{p: p, relay: j}})
			used = append(used, make([]bool, nw.G))
			used[len(used)-1][j] = true
		}
	}
	for _, round := range rounds {
		slot1 := popsnet.Slot{}
		slot2 := popsnet.Slot{}
		for _, h := range round {
			relayProc := nw.Proc(h.relay, 0)
			slot1.Sends = append(slot1.Sends, popsnet.Send{Src: h.p, DestGroup: h.relay, Packet: h.p})
			slot1.Recvs = append(slot1.Recvs, popsnet.Recv{Proc: relayProc, SrcGroup: h.p})
			slot2.Sends = append(slot2.Sends, popsnet.Send{Src: relayProc, DestGroup: pi[h.p], Packet: h.p})
			slot2.Recvs = append(slot2.Recvs, popsnet.Recv{Proc: pi[h.p], SrcGroup: h.relay})
		}
		sched.Slots = append(sched.Slots, slot1, slot2)
	}
	return &Plan{
		Net: nw, Pi: copyPerm(pi), Strategy: StrategyFaulty,
		Rounds: len(rounds), Faults: fs, fixed: sched,
	}, nil
}

// planFaultyRelay is the d > 1 fault case: balanced coloring, then repair.
func (pl *Planner) planFaultyRelay(ctx context.Context, pi []int, fs popsnet.FaultSet, fn *popsnet.FaultyNetwork) (*Plan, error) {
	nw := pl.nw
	d, g := nw.D, nw.G
	capacity := d
	if g < d {
		capacity = g
	}

	// The normal construction first: demand edge p runs from Group(p) to
	// Group(pi(p)), so demand edge IDs coincide with packet IDs.
	pl.demand.Reset()
	for p := 0; p < nw.N(); p++ {
		pl.demand.AddEdge(nw.Group(p), nw.Group(pi[p]))
	}
	colors := make([]int, nw.N())
	if err := pl.fact.BalancedInto(colors, pl.demand, pl.colorCount, pl.opts.Algorithm); err != nil {
		return nil, fmt.Errorf("core: coloring demand graph: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Color c means relay group c mod g in round ⌊c/g⌋; rounds are padded to
	// a multiple of g colors so every relay group exists in every round (the
	// trailing classes are empty when max(d,g) is not a multiple of g —
	// exactly the schedule slack the repair spends first).
	baseColors := ceilDiv(pl.colorCount, g) * g
	rec, err := edgecolor.NewRecolorer(pl.demand, colors, baseColors)
	if err != nil {
		return nil, fmt.Errorf("core: indexing demand coloring: %w", err)
	}
	size := make([]int, baseColors)
	for _, c := range colors {
		size[c]++
	}
	alive := func(p, c int) bool {
		j := c % g
		return !fn.Dead(j, nw.Group(p)) && !fn.Dead(nw.Group(pi[p]), j)
	}

	var broken []int
	for p, c := range colors {
		if !alive(p, c) {
			broken = append(broken, p)
		}
	}

	// Pass 1 — direct moves: a broken packet joins any class that has slack,
	// an alive relay for it, and neither its source nor destination group yet.
	var unresolved []int
	for _, p := range broken {
		if alive(p, rec.Color(p)) {
			continue // repaired as a side effect of an earlier move
		}
		a, b := nw.Group(p), nw.Group(pi[p])
		moved := false
		for c := 0; c < baseColors; c++ {
			if size[c] >= capacity || !alive(p, c) {
				continue
			}
			if rec.EdgeAtL(a, c) >= 0 || rec.EdgeAtR(b, c) >= 0 {
				continue
			}
			old := rec.Color(p)
			if err := rec.Recolor(p, c); err != nil {
				return nil, fmt.Errorf("core: fault repair: %w", err)
			}
			size[old]--
			size[c]++
			moved = true
			break
		}
		if !moved {
			unresolved = append(unresolved, p)
		}
	}

	// Pass 2 — Kempe flips: swap the two colors along the alternating
	// component through p. The flip is taken only when every flipped edge
	// lands on an alive relay (monotone: no repaired edge ever re-breaks)
	// and both class sizes stay within capacity.
	var overflow []int
	for _, p := range unresolved {
		if alive(p, rec.Color(p)) {
			continue
		}
		fixed := false
		cb := rec.Color(p)
		for ca := 0; ca < baseColors && !fixed; ca++ {
			if ca == cb {
				continue
			}
			comp := rec.Component(p, ca)
			nb, na := 0, 0 // component edges currently colored cb / ca
			ok := true
			for _, q := range comp {
				var next int
				if rec.Color(q) == cb {
					nb++
					next = ca
				} else {
					na++
					next = cb
				}
				if !alive(q, next) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			newB, newA := size[cb]-nb+na, size[ca]-na+nb
			if newB > capacity || newA > capacity {
				continue
			}
			rec.FlipComponent(comp, cb, ca)
			size[cb], size[ca] = newB, newA
			fixed = true
		}
		if !fixed {
			overflow = append(overflow, p)
		}
	}

	// Pass 3 — overflow rounds: packets no in-schedule repair could place get
	// fresh rounds of g empty classes (two slots each). An alive relay exists
	// for every pair (checkRoutable), and its class in a fresh round is empty,
	// so every packet places; usually many share one overflow round.
	totalColors := baseColors
	for _, p := range overflow {
		if alive(p, rec.Color(p)) {
			continue
		}
		a, b := nw.Group(p), nw.Group(pi[p])
		placed := false
		for c := baseColors; c < totalColors; c++ {
			if size[c] >= capacity || !alive(p, c) {
				continue
			}
			if rec.EdgeAtL(a, c) >= 0 || rec.EdgeAtR(b, c) >= 0 {
				continue
			}
			old := rec.Color(p)
			if err := rec.Recolor(p, c); err != nil {
				return nil, fmt.Errorf("core: fault repair: %w", err)
			}
			size[old]--
			size[c]++
			placed = true
			break
		}
		if !placed {
			j, _ := fn.AliveRelay(a, b)
			rec.Grow(totalColors + g)
			size = append(size, make([]int, g)...)
			old := rec.Color(p)
			if err := rec.Recolor(p, totalColors+j); err != nil {
				return nil, fmt.Errorf("core: fault repair: %w", err)
			}
			size[old]--
			size[totalColors+j]++
			totalColors += g
		}
	}

	return pl.buildFaultyPlan(pi, colors, totalColors, capacity, fs, fn)
}

// buildFaultyPlan checks a repaired coloring the way the tests' reference
// builder planFromColors checks a fresh one, under relaxed invariants:
// classes are proper and within capacity but need not be exactly full
// (repair drains classes and overflow rounds are sparse), and every class
// relay must be alive for all its packets. The schedule layout is
// identical to the fault-free builder — two slots per round, relays assigned
// by arrival rank — so properness and capacity give conflict freedom exactly
// as in the normal proof.
func (pl *Planner) buildFaultyPlan(pi, colors []int, colorCount, capacity int, fs popsnet.FaultSet, fn *popsnet.FaultyNetwork) (*Plan, error) {
	nw := pl.nw
	g := nw.G
	rounds := ceilDiv(colorCount, g)

	for p, c := range colors {
		if c < 0 || c >= colorCount {
			return nil, fmt.Errorf("core: packet %d has color %d outside [0,%d)", p, c, colorCount)
		}
	}
	var cl classes
	cl.sort(colors, colorCount)
	seenSrc := make([]bool, g)
	seenDst := make([]bool, g)
	for c := range colorCount {
		class := cl.class(c)
		if len(class) > capacity {
			return nil, fmt.Errorf("core: fault repair overfilled color %d: %d packets, capacity %d", c, len(class), capacity)
		}
		j := c % g
		for _, p := range class {
			a, b := nw.Group(p), nw.Group(pi[p])
			if seenSrc[a] {
				return nil, fmt.Errorf("core: fault repair broke properness: source group %d repeats color %d", a, c)
			}
			if seenDst[b] {
				return nil, fmt.Errorf("core: fault repair broke properness: destination group %d repeats color %d", b, c)
			}
			seenSrc[a], seenDst[b] = true, true
			if fn.Dead(j, a) || fn.Dead(b, j) {
				return nil, fmt.Errorf("core: fault repair left packet %d on a dead relay path via group %d", p, j)
			}
		}
		for _, p := range class {
			seenSrc[nw.Group(p)] = false
			seenDst[nw.Group(pi[p])] = false
		}
	}

	return &Plan{
		Net: nw, Pi: copyPerm(pi), Strategy: StrategyFaulty,
		Colors: colors, Rounds: rounds, Faults: fs,
	}, nil
}
