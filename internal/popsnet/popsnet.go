// Package popsnet simulates a Partitioned Optical Passive Stars network,
// POPS(d, g): n = d·g processors partitioned into g groups of d, with one
// optical passive star coupler c(b, a) for every ordered pair of groups —
// g² couplers in total. Coupler c(b, a) has the d processors of group a as
// sources and the d processors of group b as destinations (Figures 1–2 of
// Mei & Rizzi).
//
// The simulator implements exactly the SIMD slot semantics of the paper:
// during one slot every processor may send one packet to a subset of its g
// transmitters (one per destination group) and receive one packet from one
// of its g receivers (one per source group). A slot is invalid — and the
// simulator rejects it — if two processors drive the same coupler, a
// processor tunes to a coupler nobody drove, a processor receives twice, or
// a sender transmits a packet it does not hold.
//
// Packets are identified by small integers; in permutation routing, packet p
// starts at processor p. The simulator is the oracle every schedule produced
// by the planner is replayed against.
package popsnet

import (
	"errors"
	"fmt"
)

// Network describes the shape of a POPS(d, g) network.
type Network struct {
	D int // processors per group
	G int // number of groups
}

// NewNetwork validates the shape and returns the network descriptor.
func NewNetwork(d, g int) (Network, error) {
	if d < 1 || g < 1 {
		return Network{}, fmt.Errorf("popsnet: invalid shape POPS(%d,%d): both d and g must be ≥ 1", d, g)
	}
	return Network{D: d, G: g}, nil
}

// N returns the number of processors, n = d·g.
func (nw Network) N() int { return nw.D * nw.G }

// Couplers returns the number of couplers, g².
func (nw Network) Couplers() int { return nw.G * nw.G }

// Group returns the group of processor p: ⌊p/d⌋.
func (nw Network) Group(p int) int { return p / nw.D }

// LocalIndex returns the index of processor p within its group.
func (nw Network) LocalIndex(p int) int { return p % nw.D }

// Proc returns the processor with the given group and local index.
func (nw Network) Proc(group, local int) int { return group*nw.D + local }

// CouplerID returns a dense identifier for coupler c(destGroup, srcGroup).
func (nw Network) CouplerID(destGroup, srcGroup int) int {
	return destGroup*nw.G + srcGroup
}

// ValidProc reports whether p is a valid processor index.
func (nw Network) ValidProc(p int) bool { return p >= 0 && p < nw.N() }

// ValidGroup reports whether a is a valid group index.
func (nw Network) ValidGroup(a int) bool { return a >= 0 && a < nw.G }

// String implements fmt.Stringer.
func (nw Network) String() string { return fmt.Sprintf("POPS(%d,%d)", nw.D, nw.G) }

// Send is one transmission: processor Src drives coupler
// c(DestGroup, Group(Src)) with packet Packet. Src must hold Packet at the
// start of the slot. The same source may appear in several Sends of one slot
// only with the same packet (optical broadcast to several couplers).
type Send struct {
	Src       int
	DestGroup int
	Packet    int
}

// Recv is one reception: processor Proc tunes its receiver to coupler
// c(Group(Proc), SrcGroup) and stores whatever packet was driven onto it.
type Recv struct {
	Proc     int
	SrcGroup int
}

// Slot is the communication part of one SIMD step.
type Slot struct {
	Sends []Send
	Recvs []Recv
}

// Schedule is a sequence of slots on a network.
type Schedule struct {
	Net   Network
	Slots []Slot
}

// SlotCount returns the number of slots in the schedule.
func (s *Schedule) SlotCount() int { return len(s.Slots) }

// State tracks which packets each processor holds. Holdings are multisets:
// a processor may hold its own unsent packet plus a packet in transit (and,
// at the destination, delivered packets).
type State struct {
	nw      Network
	holding [][]int // processor -> packet IDs held
	where   []int   // packet -> processor currently holding it (last copy), -1 unknown
}

// Holds reports whether processor p currently holds packet k.
func (st *State) Holds(p, k int) bool {
	for _, x := range st.holding[p] {
		if x == k {
			return true
		}
	}
	return false
}

// remove deletes one copy of packet k from processor p's holdings.
func (st *State) remove(p, k int) {
	h := st.holding[p]
	for i, x := range h {
		if x == k {
			h[i] = h[len(h)-1]
			st.holding[p] = h[:len(h)-1]
			return
		}
	}
}

// SlotError describes a slot-model violation with its slot index.
type SlotError struct {
	Slot int
	Err  error
}

func (e *SlotError) Error() string { return fmt.Sprintf("popsnet: slot %d: %v", e.Slot, e.Err) }

// Unwrap returns the underlying violation.
func (e *SlotError) Unwrap() error { return e.Err }

// Violation categories, usable with errors.Is through SlotError.
var (
	ErrCouplerConflict  = errors.New("two senders drive one coupler")
	ErrReceiverConflict = errors.New("processor receives twice in one slot")
	ErrEmptyCoupler     = errors.New("receiver tuned to a coupler nobody drove")
	ErrSenderNotHolding = errors.New("sender does not hold the packet")
	ErrBadIndex         = errors.New("index out of range")
	ErrSenderAmbiguous  = errors.New("one sender drives couplers with different packets")
)

// Trace records per-slot statistics of an execution.
type Trace struct {
	// MaxHeld[s] is the maximum number of packets any processor holds after
	// slot s. The paper notes its routing keeps this at 1 for d ≤ g.
	MaxHeld []int
	// PacketsMoved[s] is the number of receive operations in slot s.
	PacketsMoved []int
}

// Run replays the schedule from the canonical permutation-routing initial
// state (packet p at processor p) and returns the final state and trace. It
// fails with a *SlotError on the first slot-model violation.
func Run(s *Schedule) (*State, *Trace, error) {
	home := make([]int, s.Net.N())
	for p := range home {
		home[p] = p
	}
	return RunFrom(s, home)
}

// step validates and applies a single slot to the state. A non-nil fn
// injects faults: any send driving — or receiver tuned to — a dead coupler
// rejects the slot with ErrDeadCoupler.
func step(st *State, slot *Slot, fn *FaultyNetwork) error {
	nw := st.nw
	// Phase 1: validate sends, load couplers. Each coupler remembers its
	// driver so a conflict names both processors, not just the coupler.
	type drive struct{ src, packet int }
	coupler := make(map[int]drive, len(slot.Sends)) // coupler ID -> driver
	senderPacket := make(map[int]int, len(slot.Sends))
	for _, snd := range slot.Sends {
		if !nw.ValidProc(snd.Src) || !nw.ValidGroup(snd.DestGroup) {
			return fmt.Errorf("%w: send %+v", ErrBadIndex, snd)
		}
		srcGroup := nw.Group(snd.Src)
		if !st.Holds(snd.Src, snd.Packet) {
			return fmt.Errorf("%w: processor %d does not hold packet %d (driving coupler c(%d,%d))",
				ErrSenderNotHolding, snd.Src, snd.Packet, snd.DestGroup, srcGroup)
		}
		if prev, ok := senderPacket[snd.Src]; ok && prev != snd.Packet {
			return fmt.Errorf("%w: processor %d sends packets %d and %d", ErrSenderAmbiguous, snd.Src, prev, snd.Packet)
		}
		senderPacket[snd.Src] = snd.Packet
		cid := nw.CouplerID(snd.DestGroup, srcGroup)
		if fn != nil && fn.dead[cid] {
			return fmt.Errorf("%w: processor %d drives dead coupler c(%d,%d) with packet %d",
				ErrDeadCoupler, snd.Src, snd.DestGroup, srcGroup, snd.Packet)
		}
		if prev, busy := coupler[cid]; busy {
			return fmt.Errorf("%w: coupler c(%d,%d) driven by processor %d (packet %d) and processor %d (packet %d)",
				ErrCouplerConflict, snd.DestGroup, srcGroup, prev.src, prev.packet, snd.Src, snd.Packet)
		}
		coupler[cid] = drive{src: snd.Src, packet: snd.Packet}
	}
	// Phase 2: validate receives against the loaded couplers.
	seenRecv := make(map[int]bool, len(slot.Recvs))
	type delivery struct{ proc, packet int }
	deliveries := make([]delivery, 0, len(slot.Recvs))
	for _, rcv := range slot.Recvs {
		if !nw.ValidProc(rcv.Proc) || !nw.ValidGroup(rcv.SrcGroup) {
			return fmt.Errorf("%w: recv %+v", ErrBadIndex, rcv)
		}
		if seenRecv[rcv.Proc] {
			return fmt.Errorf("%w: processor %d", ErrReceiverConflict, rcv.Proc)
		}
		seenRecv[rcv.Proc] = true
		cid := nw.CouplerID(nw.Group(rcv.Proc), rcv.SrcGroup)
		pkt, ok := coupler[cid]
		if !ok {
			if fn != nil && fn.dead[cid] {
				return fmt.Errorf("%w: processor %d tuned to dead coupler c(%d,%d)",
					ErrDeadCoupler, rcv.Proc, nw.Group(rcv.Proc), rcv.SrcGroup)
			}
			return fmt.Errorf("%w: processor %d on coupler c(%d,%d)", ErrEmptyCoupler, rcv.Proc, nw.Group(rcv.Proc), rcv.SrcGroup)
		}
		deliveries = append(deliveries, delivery{rcv.Proc, pkt.packet})
	}
	// Phase 3: apply — senders release their packet, receivers store a copy.
	// All sends happen "before" all receives within the slot, as in the SIMD
	// step of the paper.
	for src, pkt := range senderPacket {
		st.remove(src, pkt)
	}
	for _, d := range deliveries {
		st.holding[d.proc] = append(st.holding[d.proc], d.packet)
		st.where[d.packet] = d.proc
	}
	return nil
}

// VerifyPermutationRouted checks that after executing the schedule from the
// canonical initial state, packet p resides at processor pi[p] for every p.
// It returns the trace for inspection on success.
func VerifyPermutationRouted(s *Schedule, pi []int) (*Trace, error) {
	if len(pi) != s.Net.N() {
		return nil, fmt.Errorf("popsnet: permutation length %d, want %d", len(pi), s.Net.N())
	}
	st, tr, err := Run(s)
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
