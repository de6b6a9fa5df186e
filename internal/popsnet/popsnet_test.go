package popsnet

import (
	"errors"
	"testing"
)

func mustNet(t *testing.T, d, g int) Network {
	t.Helper()
	nw, err := NewNetwork(d, g)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(0, 3); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := NewNetwork(3, 0); err == nil {
		t.Fatal("g=0 accepted")
	}
	nw := mustNet(t, 3, 2)
	if nw.N() != 6 || nw.Couplers() != 4 {
		t.Fatalf("POPS(3,2): n=%d couplers=%d", nw.N(), nw.Couplers())
	}
	if nw.String() != "POPS(3,2)" {
		t.Fatalf("String = %q", nw.String())
	}
}

func TestGroupArithmetic(t *testing.T) {
	nw := mustNet(t, 3, 3)
	// Figure 2/3 layout: group(i) = ⌊i/d⌋.
	for p := 0; p < 9; p++ {
		if got, want := nw.Group(p), p/3; got != want {
			t.Fatalf("Group(%d) = %d, want %d", p, got, want)
		}
		if nw.Proc(nw.Group(p), nw.LocalIndex(p)) != p {
			t.Fatalf("Proc/Group/LocalIndex do not round-trip at %d", p)
		}
	}
	if nw.CouplerID(2, 1) != 7 {
		t.Fatalf("CouplerID(2,1) = %d, want 7", nw.CouplerID(2, 1))
	}
}

func TestTopologyInvariantsFigures1And2(t *testing.T) {
	// F1/F2: a POPS(d,g) has g² couplers; every processor has g transmitters
	// and g receivers (one per group); diameter is 1: any (src,dst) pair is
	// joined by coupler c(group(dst), group(src)).
	nw := mustNet(t, 3, 2)
	if nw.Couplers() != nw.G*nw.G {
		t.Fatal("coupler count is not g²")
	}
	for src := 0; src < nw.N(); src++ {
		for dst := 0; dst < nw.N(); dst++ {
			slot, err := DirectSlot(nw, []int{src}, []int{src}, []int{dst})
			if err != nil {
				t.Fatalf("no one-slot path %d→%d: %v", src, dst, err)
			}
			sched := &Schedule{Net: nw, Slots: []Slot{slot}}
			st, _, err := Run(sched)
			if err != nil {
				t.Fatalf("%d→%d: %v", src, dst, err)
			}
			if !st.Holds(dst, src) {
				t.Fatalf("packet %d did not reach %d", src, dst)
			}
		}
	}
}

func TestRunSimpleExchange(t *testing.T) {
	// POPS(1,2): two processors swap packets in one slot via c(1,0), c(0,1).
	nw := mustNet(t, 1, 2)
	slot := Slot{
		Sends: []Send{{Src: 0, DestGroup: 1, Packet: 0}, {Src: 1, DestGroup: 0, Packet: 1}},
		Recvs: []Recv{{Proc: 1, SrcGroup: 0}, {Proc: 0, SrcGroup: 1}},
	}
	st, tr, err := Run(&Schedule{Net: nw, Slots: []Slot{slot}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Holds(1, 0) || !st.Holds(0, 1) {
		t.Fatal("swap failed")
	}
	if tr.MaxHeld[0] != 1 {
		t.Fatalf("MaxHeld = %d, want 1", tr.MaxHeld[0])
	}
	if tr.PacketsMoved[0] != 2 {
		t.Fatalf("PacketsMoved = %d, want 2", tr.PacketsMoved[0])
	}
}

func TestCouplerConflictDetected(t *testing.T) {
	// Both processors of group 0 drive coupler c(1,0).
	nw := mustNet(t, 2, 2)
	slot := Slot{
		Sends: []Send{{Src: 0, DestGroup: 1, Packet: 0}, {Src: 1, DestGroup: 1, Packet: 1}},
		Recvs: []Recv{{Proc: 2, SrcGroup: 0}},
	}
	_, _, err := Run(&Schedule{Net: nw, Slots: []Slot{slot}})
	if !errors.Is(err, ErrCouplerConflict) {
		t.Fatalf("err = %v, want ErrCouplerConflict", err)
	}
	var se *SlotError
	if !errors.As(err, &se) || se.Slot != 0 {
		t.Fatalf("slot index not reported: %v", err)
	}
}

func TestReceiverConflictDetected(t *testing.T) {
	nw := mustNet(t, 2, 2)
	slot := Slot{
		Sends: []Send{{Src: 0, DestGroup: 1, Packet: 0}, {Src: 2, DestGroup: 1, Packet: 2}},
		Recvs: []Recv{{Proc: 2, SrcGroup: 0}, {Proc: 2, SrcGroup: 1}},
	}
	_, _, err := Run(&Schedule{Net: nw, Slots: []Slot{slot}})
	if !errors.Is(err, ErrReceiverConflict) {
		t.Fatalf("err = %v, want ErrReceiverConflict", err)
	}
}

func TestEmptyCouplerDetected(t *testing.T) {
	nw := mustNet(t, 2, 2)
	slot := Slot{Recvs: []Recv{{Proc: 0, SrcGroup: 1}}}
	_, _, err := Run(&Schedule{Net: nw, Slots: []Slot{slot}})
	if !errors.Is(err, ErrEmptyCoupler) {
		t.Fatalf("err = %v, want ErrEmptyCoupler", err)
	}
}

func TestSenderNotHoldingDetected(t *testing.T) {
	nw := mustNet(t, 2, 2)
	slot := Slot{Sends: []Send{{Src: 0, DestGroup: 1, Packet: 3}}}
	_, _, err := Run(&Schedule{Net: nw, Slots: []Slot{slot}})
	if !errors.Is(err, ErrSenderNotHolding) {
		t.Fatalf("err = %v, want ErrSenderNotHolding", err)
	}
}

func TestSenderAmbiguousDetected(t *testing.T) {
	// After a first slot that gives processor 0 a second packet, it tries to
	// drive two couplers with different packets.
	nw := mustNet(t, 2, 2)
	s1 := Slot{
		Sends: []Send{{Src: 1, DestGroup: 0, Packet: 1}},
		Recvs: []Recv{{Proc: 0, SrcGroup: 0}},
	}
	s2 := Slot{
		Sends: []Send{
			{Src: 0, DestGroup: 0, Packet: 0},
			{Src: 0, DestGroup: 1, Packet: 1},
		},
	}
	_, _, err := Run(&Schedule{Net: nw, Slots: []Slot{s1, s2}})
	if !errors.Is(err, ErrSenderAmbiguous) {
		t.Fatalf("err = %v, want ErrSenderAmbiguous", err)
	}
}

func TestBadIndicesDetected(t *testing.T) {
	nw := mustNet(t, 2, 2)
	cases := []Slot{
		{Sends: []Send{{Src: -1, DestGroup: 0, Packet: 0}}},
		{Sends: []Send{{Src: 0, DestGroup: 7, Packet: 0}}},
		{Recvs: []Recv{{Proc: 99, SrcGroup: 0}}},
		{Recvs: []Recv{{Proc: 0, SrcGroup: -2}}},
	}
	for i, slot := range cases {
		_, _, err := Run(&Schedule{Net: nw, Slots: []Slot{slot}})
		if !errors.Is(err, ErrBadIndex) {
			t.Fatalf("case %d: err = %v, want ErrBadIndex", i, err)
		}
	}
}

func TestBroadcastSameSenderManyCouplers(t *testing.T) {
	// One sender may drive several couplers with the same packet.
	nw := mustNet(t, 2, 3)
	sched, err := OneToAll(nw, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < nw.N(); p++ {
		if !st.Holds(p, 2) {
			t.Fatalf("processor %d did not receive the broadcast", p)
		}
	}
}

func TestOneToAllSpeakerOutOfRange(t *testing.T) {
	nw := mustNet(t, 2, 2)
	if _, err := OneToAll(nw, 9, 0); err == nil {
		t.Fatal("invalid speaker accepted")
	}
}

func TestSendThenLoseCustody(t *testing.T) {
	// After sending without receiving, the packet is gone from the sender.
	nw := mustNet(t, 1, 2)
	slot := Slot{
		Sends: []Send{{Src: 0, DestGroup: 1, Packet: 0}},
		Recvs: []Recv{{Proc: 1, SrcGroup: 0}},
	}
	st, _, err := Run(&Schedule{Net: nw, Slots: []Slot{slot}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Holds(0, 0) {
		t.Fatal("sender kept the packet after transmission")
	}
	if !st.Holds(1, 1) || !st.Holds(1, 0) {
		t.Fatal("receiver does not hold its own packet plus the received one")
	}
}

func TestVerifyPermutationRouted(t *testing.T) {
	nw := mustNet(t, 1, 2)
	swap := Slot{
		Sends: []Send{{Src: 0, DestGroup: 1, Packet: 0}, {Src: 1, DestGroup: 0, Packet: 1}},
		Recvs: []Recv{{Proc: 1, SrcGroup: 0}, {Proc: 0, SrcGroup: 1}},
	}
	sched := &Schedule{Net: nw, Slots: []Slot{swap}}
	if _, err := VerifyPermutationRouted(sched, []int{1, 0}); err != nil {
		t.Fatalf("valid routing rejected: %v", err)
	}
	if _, err := VerifyPermutationRouted(sched, []int{0, 1}); err == nil {
		t.Fatal("wrong destination accepted")
	}
	if _, err := VerifyPermutationRouted(sched, []int{0}); err == nil {
		t.Fatal("wrong-length permutation accepted")
	}
}

func TestDirectSlotConflicts(t *testing.T) {
	nw := mustNet(t, 2, 2)
	// Two packets from group 0 to group 1: coupler conflict.
	if _, err := DirectSlot(nw, []int{0, 1}, []int{0, 1}, []int{2, 3}); err == nil {
		t.Fatal("coupler conflict accepted")
	}
	// Two packets to the same destination processor.
	if _, err := DirectSlot(nw, []int{0, 2}, []int{0, 2}, []int{1, 1}); err == nil {
		t.Fatal("receiver conflict accepted")
	}
	// One source sending two packets.
	if _, err := DirectSlot(nw, []int{0, 1}, []int{0, 0}, []int{1, 2}); err == nil {
		t.Fatal("double send accepted")
	}
	// Mismatched lengths.
	if _, err := DirectSlot(nw, []int{0}, []int{0, 1}, []int{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	// Out of range.
	if _, err := DirectSlot(nw, []int{0}, []int{0}, []int{44}); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestDirectSlotIntraGroup(t *testing.T) {
	// c(a,a) couplers allow intra-group movement in one slot.
	nw := mustNet(t, 3, 2)
	slot, err := DirectSlot(nw, []int{0}, []int{0}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := Run(&Schedule{Net: nw, Slots: []Slot{slot}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Holds(2, 0) {
		t.Fatal("intra-group transfer failed")
	}
}
