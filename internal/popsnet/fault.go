package popsnet

import (
	"errors"
	"fmt"
	"sort"
)

// Coupler names one optical passive star coupler c(B, A): the d processors
// of group A are its sources, the d processors of group B its destinations.
type Coupler struct {
	B int // destination group
	A int // source group
}

// String formats the coupler in the paper's c(b, a) notation.
func (c Coupler) String() string { return fmt.Sprintf("c(%d,%d)", c.B, c.A) }

// FaultSet declares dead hardware: individual dead couplers, and dead groups
// as sugar for killing a whole coupler row and column (a dead group can
// neither source nor sink light — every c(·, a) and c(a, ·) is gone).
//
// The zero value means a fault-free network. Declarations may repeat or
// overlap (a coupler already covered by a dead group is allowed); Canonical
// normalizes the representation so two spellings of the same set compare and
// fingerprint identically.
type FaultSet struct {
	Couplers []Coupler
	Groups   []int
}

// Empty reports whether the set declares no faults at all.
func (fs FaultSet) Empty() bool { return len(fs.Couplers) == 0 && len(fs.Groups) == 0 }

// Validate checks every declared coupler and group against the shape.
func (fs FaultSet) Validate(nw Network) error {
	for _, c := range fs.Couplers {
		if !nw.ValidGroup(c.B) || !nw.ValidGroup(c.A) {
			return fmt.Errorf("popsnet: fault set names coupler %v outside %v", c, nw)
		}
	}
	for _, x := range fs.Groups {
		if !nw.ValidGroup(x) {
			return fmt.Errorf("popsnet: fault set names group %d outside %v", x, nw)
		}
	}
	return nil
}

// Canonical returns a normalized copy: couplers sorted by (B, A) and
// deduplicated, groups sorted and deduplicated. The receiver is not modified.
func (fs FaultSet) Canonical() FaultSet {
	out := FaultSet{}
	if len(fs.Couplers) > 0 {
		cs := append([]Coupler(nil), fs.Couplers...)
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].B != cs[j].B {
				return cs[i].B < cs[j].B
			}
			return cs[i].A < cs[j].A
		})
		out.Couplers = cs[:0]
		for i, c := range cs {
			if i == 0 || c != cs[i-1] {
				out.Couplers = append(out.Couplers, c)
			}
		}
	}
	if len(fs.Groups) > 0 {
		gs := append([]int(nil), fs.Groups...)
		sort.Ints(gs)
		out.Groups = gs[:0]
		for i, x := range gs {
			if i == 0 || x != gs[i-1] {
				out.Groups = append(out.Groups, x)
			}
		}
	}
	return out
}

// AppendIdent flattens the set into dst for fingerprinting:
// [len(couplers), b0, a0, b1, a1, ..., len(groups), g0, g1, ...].
// Canonicalize first if two spellings of one set must key identically.
func (fs FaultSet) AppendIdent(dst []int) []int {
	dst = append(dst, len(fs.Couplers))
	for _, c := range fs.Couplers {
		dst = append(dst, c.B, c.A)
	}
	dst = append(dst, len(fs.Groups))
	return append(dst, fs.Groups...)
}

// Compile validates the set against the shape and returns the fault-injected
// network with every declared coupler and group killed.
func (fs FaultSet) Compile(nw Network) (*FaultyNetwork, error) {
	if err := fs.Validate(nw); err != nil {
		return nil, err
	}
	fn := NewFaultyNetwork(nw)
	for _, c := range fs.Couplers {
		fn.KillCoupler(c.B, c.A)
	}
	for _, x := range fs.Groups {
		fn.KillGroup(x)
	}
	return fn, nil
}

// ErrDeadCoupler is the slot-model violation for fault injection: a send
// drove — or a receiver tuned to — a coupler that is dead.
var ErrDeadCoupler = errors.New("slot uses a dead coupler")

// FaultyNetwork is a POPS(d, g) network with a mutable set of dead couplers.
// It is the injection point for fault simulation: replaying a schedule
// against it rejects any slot that drives a dead coupler, and KillCoupler
// may be called between slots (see Replayer) to model mid-trace fault
// arrival. The zero set of faults behaves exactly like the plain network.
type FaultyNetwork struct {
	nw        Network
	dead      []bool // CouplerID -> dead
	deadCount int
	rowDead   []int // destination group b -> number of dead couplers c(b, ·)
	colDead   []int // source group a -> number of dead couplers c(·, a)
}

// NewFaultyNetwork returns a fault-injected view of nw with no dead couplers.
func NewFaultyNetwork(nw Network) *FaultyNetwork {
	return &FaultyNetwork{
		nw:      nw,
		dead:    make([]bool, nw.Couplers()),
		rowDead: make([]int, nw.G),
		colDead: make([]int, nw.G),
	}
}

// Network returns the underlying shape.
func (f *FaultyNetwork) Network() Network { return f.nw }

// Dead reports whether coupler c(b, a) is dead.
func (f *FaultyNetwork) Dead(b, a int) bool {
	return f.dead[f.nw.CouplerID(b, a)]
}

// DeadCount returns the number of dead couplers.
func (f *FaultyNetwork) DeadCount() int { return f.deadCount }

// KillCoupler marks coupler c(b, a) dead. Killing a dead coupler is a no-op.
// It returns an error only for an out-of-range coupler name.
func (f *FaultyNetwork) KillCoupler(b, a int) error {
	if !f.nw.ValidGroup(b) || !f.nw.ValidGroup(a) {
		return fmt.Errorf("popsnet: coupler %v outside %v", Coupler{B: b, A: a}, f.nw)
	}
	cid := f.nw.CouplerID(b, a)
	if !f.dead[cid] {
		f.dead[cid] = true
		f.deadCount++
		f.rowDead[b]++
		f.colDead[a]++
	}
	return nil
}

// KillGroup kills every coupler group x sources or sinks: the row c(x, ·)
// and the column c(·, x).
func (f *FaultyNetwork) KillGroup(x int) error {
	if !f.nw.ValidGroup(x) {
		return fmt.Errorf("popsnet: group %d outside %v", x, f.nw)
	}
	for y := 0; y < f.nw.G; y++ {
		_ = f.KillCoupler(x, y)
		_ = f.KillCoupler(y, x)
	}
	return nil
}

// SeveredSource reports whether group a has no alive transmit coupler left:
// every c(·, a) is dead, so nothing sent from a can leave it.
func (f *FaultyNetwork) SeveredSource(a int) bool { return f.colDead[a] == f.nw.G }

// SeveredDest reports whether group b has no alive receive coupler left:
// every c(b, ·) is dead, so nothing can reach b.
func (f *FaultyNetwork) SeveredDest(b int) bool { return f.rowDead[b] == f.nw.G }

// AliveRelay returns the smallest intermediate group j such that both hops of
// a two-slot relay from group a to group b survive: c(j, a) and c(b, j) are
// alive. ok is false when no such j exists — an (a → b) packet is unroutable
// by the two-hop construction.
func (f *FaultyNetwork) AliveRelay(a, b int) (j int, ok bool) {
	for j = 0; j < f.nw.G; j++ {
		if !f.Dead(j, a) && !f.Dead(b, j) {
			return j, true
		}
	}
	return -1, false
}

// Replayer steps a schedule one slot at a time against a fault-injected
// network, so faults can arrive mid-trace: call KillCoupler on that network
// between Step calls and the very next slot that touches the newly dead
// coupler is rejected with ErrDeadCoupler. This makes the simulator the oracle for
// fault plans — a plan survives a fault set exactly when every slot replays.
type Replayer struct {
	s    *Schedule
	st   *State
	fn   *FaultyNetwork
	tr   *Trace
	next int
}

// NewReplayer prepares a stepwise replay of s from the custom placement home
// (packet k at processor home[k]) on the fault-injected network fn. A nil fn
// replays fault-free.
func NewReplayer(s *Schedule, home []int, fn *FaultyNetwork) (*Replayer, error) {
	st, err := NewCustomState(s.Net, home)
	if err != nil {
		return nil, err
	}
	if fn != nil && fn.nw != s.Net {
		return nil, fmt.Errorf("popsnet: fault network %v does not match schedule network %v", fn.nw, s.Net)
	}
	return &Replayer{s: s, st: st, fn: fn, tr: &Trace{}}, nil
}

// Step validates and applies the next slot. It reports whether a slot was
// applied — false once the schedule is exhausted — and the first slot-model
// violation as a *SlotError.
func (r *Replayer) Step() (bool, error) {
	if r.next >= len(r.s.Slots) {
		return false, nil
	}
	i := r.next
	if err := step(r.st, &r.s.Slots[i], r.fn); err != nil {
		return false, &SlotError{Slot: i, Err: err}
	}
	r.next++
	r.tr.PacketsMoved = append(r.tr.PacketsMoved, len(r.s.Slots[i].Recvs))
	maxHeld := 0
	for p := range r.st.holding {
		if len(r.st.holding[p]) > maxHeld {
			maxHeld = len(r.st.holding[p])
		}
	}
	r.tr.MaxHeld = append(r.tr.MaxHeld, maxHeld)
	return true, nil
}

// RunFaulty replays the schedule from the canonical permutation-routing
// initial state on the fault-injected network fn, failing with a *SlotError
// wrapping ErrDeadCoupler on the first slot that uses a dead coupler.
func RunFaulty(s *Schedule, fn *FaultyNetwork) (*State, *Trace, error) {
	home := make([]int, s.Net.N())
	for p := range home {
		home[p] = p
	}
	return runFrom(s, home, fn)
}

// VerifyPermutationRoutedFaulty checks that the schedule delivers packet p to
// processor pi[p] for every p when replayed on the fault-injected network fn:
// full delivery with zero dead-coupler use.
func VerifyPermutationRoutedFaulty(s *Schedule, pi []int, fn *FaultyNetwork) (*Trace, error) {
	if len(pi) != s.Net.N() {
		return nil, fmt.Errorf("popsnet: permutation length %d, want %d", len(pi), s.Net.N())
	}
	st, tr, err := RunFaulty(s, fn)
	if err != nil {
		return nil, err
	}
	for p := 0; p < s.Net.N(); p++ {
		if !st.Holds(pi[p], p) {
			return nil, fmt.Errorf("popsnet: packet %d not delivered to processor %d (held by %d)",
				p, pi[p], st.where[p])
		}
	}
	return tr, nil
}
