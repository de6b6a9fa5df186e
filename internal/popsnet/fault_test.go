package popsnet

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestFaultSetCanonical(t *testing.T) {
	fs := FaultSet{
		Couplers: []Coupler{{B: 2, A: 1}, {B: 0, A: 3}, {B: 2, A: 1}, {B: 0, A: 1}},
		Groups:   []int{3, 1, 3},
	}
	got := fs.Canonical()
	want := FaultSet{
		Couplers: []Coupler{{B: 0, A: 1}, {B: 0, A: 3}, {B: 2, A: 1}},
		Groups:   []int{1, 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Canonical() = %+v, want %+v", got, want)
	}
	// The receiver must be untouched.
	if len(fs.Couplers) != 4 || len(fs.Groups) != 3 {
		t.Fatalf("Canonical mutated its receiver: %+v", fs)
	}
	ident := want.AppendIdent(nil)
	wantIdent := []int{3, 0, 1, 0, 3, 2, 1, 2, 1, 3}
	if !reflect.DeepEqual(ident, wantIdent) {
		t.Fatalf("AppendIdent = %v, want %v", ident, wantIdent)
	}
	if got := (FaultSet{}).AppendIdent(nil); !reflect.DeepEqual(got, []int{0, 0}) {
		t.Fatalf("empty AppendIdent = %v, want [0 0]", got)
	}
}

func TestFaultSetValidate(t *testing.T) {
	nw := Network{D: 2, G: 3}
	if err := (FaultSet{Couplers: []Coupler{{B: 3, A: 0}}}).Validate(nw); err == nil {
		t.Fatal("out-of-range coupler row accepted")
	}
	if err := (FaultSet{Couplers: []Coupler{{B: 0, A: -1}}}).Validate(nw); err == nil {
		t.Fatal("negative coupler column accepted")
	}
	if err := (FaultSet{Groups: []int{3}}).Validate(nw); err == nil {
		t.Fatal("out-of-range group accepted")
	}
	if _, err := (FaultSet{Groups: []int{3}}).Compile(nw); err == nil {
		t.Fatal("Compile accepted an invalid set")
	}
	fn, err := (FaultSet{Couplers: []Coupler{{B: 1, A: 2}}, Groups: []int{0}}).Compile(nw)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !fn.Dead(1, 2) || !fn.Dead(0, 1) || !fn.Dead(2, 0) {
		t.Fatal("compiled faults missing")
	}
}

func TestFaultyNetworkKills(t *testing.T) {
	nw := Network{D: 2, G: 3}
	fn := NewFaultyNetwork(nw)
	if fn.DeadCount() != 0 || fn.Dead(0, 0) {
		t.Fatal("fresh network has dead couplers")
	}
	if err := fn.KillCoupler(1, 2); err != nil {
		t.Fatalf("KillCoupler: %v", err)
	}
	if err := fn.KillCoupler(1, 2); err != nil {
		t.Fatalf("idempotent KillCoupler: %v", err)
	}
	if fn.DeadCount() != 1 || !fn.Dead(1, 2) {
		t.Fatalf("DeadCount = %d, Dead(1,2) = %v", fn.DeadCount(), fn.Dead(1, 2))
	}
	if err := fn.KillCoupler(3, 0); err == nil {
		t.Fatal("out-of-range KillCoupler accepted")
	}

	// Kill group 0: row c(0,·) and column c(·,0) die, 2g-1 = 5 couplers.
	if err := fn.KillGroup(0); err != nil {
		t.Fatalf("KillGroup: %v", err)
	}
	if fn.DeadCount() != 6 { // 5 new + the earlier c(1,2)
		t.Fatalf("DeadCount after KillGroup = %d, want 6", fn.DeadCount())
	}
	if !fn.SeveredSource(0) || !fn.SeveredDest(0) {
		t.Fatal("killed group not severed")
	}
	if fn.SeveredSource(1) || fn.SeveredDest(2) {
		t.Fatal("live group reported severed")
	}

	// Relays: group 1 → group 2 must avoid dead hardware. c(j,1) alive for
	// j ∈ {1,2}; c(2,j) alive for j ∈ {1,2} except c(2,1)? c(2,1) is alive
	// (only row 0, column 0, and c(1,2) are dead), so j = 1 works.
	if j, ok := fn.AliveRelay(1, 2); !ok || j != 1 {
		t.Fatalf("AliveRelay(1,2) = %d, %v; want 1, true", j, ok)
	}
	// Anything out of a severed group is unroutable.
	if _, ok := fn.AliveRelay(0, 1); ok {
		t.Fatal("AliveRelay out of a severed group reported a path")
	}
	if _, ok := fn.AliveRelay(2, 0); ok {
		t.Fatal("AliveRelay into a severed group reported a path")
	}
}

// sched22 builds a POPS(2,2) schedule from the given slots. Processors 0,1
// form group 0; processors 2,3 form group 1.
func sched22(slots ...Slot) *Schedule {
	return &Schedule{Net: Network{D: 2, G: 2}, Slots: slots}
}

// runSlot replays a single-slot schedule fault-free; a nil home means the
// canonical permutation-routing state (packet p at processor p).
func runSlot(t *testing.T, slot Slot, home []int) error {
	t.Helper()
	if home == nil {
		home = []int{0, 1, 2, 3}
	}
	_, _, err := RunFrom(sched22(slot), home)
	return err
}

// TestSlotRejectionMessages pins every rejection path of the slot model and
// the diagnostic contract: coupler-related violations name the offending
// coupler c(b,a), and a coupler conflict names both drivers.
func TestSlotRejectionMessages(t *testing.T) {
	cases := []struct {
		name     string
		slot     Slot
		home     []int // nil = canonical packet p at processor p
		wantErr  error
		contains []string
	}{
		{
			name: "coupler conflict names coupler and both drivers",
			slot: Slot{Sends: []Send{
				{Src: 0, DestGroup: 1, Packet: 0},
				{Src: 1, DestGroup: 1, Packet: 1},
			}},
			wantErr:  ErrCouplerConflict,
			contains: []string{"c(1,0)", "processor 0 (packet 0)", "processor 1 (packet 1)"},
		},
		{
			name:     "sender not holding names packet and coupler",
			slot:     Slot{Sends: []Send{{Src: 0, DestGroup: 1, Packet: 3}}},
			wantErr:  ErrSenderNotHolding,
			contains: []string{"processor 0", "packet 3", "c(1,0)"},
		},
		{
			name: "ambiguous sender names both packets",
			slot: Slot{Sends: []Send{
				{Src: 0, DestGroup: 0, Packet: 0},
				{Src: 0, DestGroup: 1, Packet: 1},
			}},
			home:     []int{0, 0, 2, 3}, // processor 0 holds packets 0 and 1
			wantErr:  ErrSenderAmbiguous,
			contains: []string{"processor 0", "packets 0 and 1"},
		},
		{
			name:     "empty coupler names receiver and coupler",
			slot:     Slot{Recvs: []Recv{{Proc: 2, SrcGroup: 0}}},
			wantErr:  ErrEmptyCoupler,
			contains: []string{"processor 2", "c(1,0)"},
		},
		{
			name: "receiver conflict names processor",
			slot: Slot{
				Sends: []Send{{Src: 0, DestGroup: 1, Packet: 0}, {Src: 2, DestGroup: 1, Packet: 2}},
				Recvs: []Recv{{Proc: 3, SrcGroup: 0}, {Proc: 3, SrcGroup: 1}},
			},
			wantErr:  ErrReceiverConflict,
			contains: []string{"processor 3"},
		},
		{
			name:    "bad send index",
			slot:    Slot{Sends: []Send{{Src: 4, DestGroup: 0, Packet: 0}}},
			wantErr: ErrBadIndex,
		},
		{
			name:    "bad recv group",
			slot:    Slot{Recvs: []Recv{{Proc: 0, SrcGroup: 2}}},
			wantErr: ErrBadIndex,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runSlot(t, tc.slot, tc.home)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error = %v, want %v", err, tc.wantErr)
			}
			var se *SlotError
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a *SlotError", err)
			}
			for _, want := range tc.contains {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err.Error(), want)
				}
			}
		})
	}
}

func TestDeadCouplerRejections(t *testing.T) {
	nw := Network{D: 2, G: 2}

	t.Run("send drives dead coupler", func(t *testing.T) {
		fn := NewFaultyNetwork(nw)
		if err := fn.KillCoupler(1, 0); err != nil {
			t.Fatal(err)
		}
		s := sched22(Slot{Sends: []Send{{Src: 0, DestGroup: 1, Packet: 0}}})
		_, _, err := RunFaulty(s, fn)
		if !errors.Is(err, ErrDeadCoupler) {
			t.Fatalf("error = %v, want ErrDeadCoupler", err)
		}
		for _, want := range []string{"c(1,0)", "processor 0", "packet 0"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err.Error(), want)
			}
		}
	})

	t.Run("receiver tuned to dead coupler", func(t *testing.T) {
		fn := NewFaultyNetwork(nw)
		if err := fn.KillCoupler(1, 0); err != nil {
			t.Fatal(err)
		}
		s := sched22(Slot{Recvs: []Recv{{Proc: 2, SrcGroup: 0}}})
		_, _, err := RunFaulty(s, fn)
		if !errors.Is(err, ErrDeadCoupler) {
			t.Fatalf("error = %v, want ErrDeadCoupler", err)
		}
		if !strings.Contains(err.Error(), "dead coupler c(1,0)") {
			t.Errorf("error %q does not name the dead coupler", err.Error())
		}
	})

	t.Run("unused faults do not reject", func(t *testing.T) {
		fn := NewFaultyNetwork(nw)
		if err := fn.KillCoupler(0, 1); err != nil { // c(0,1) — never driven below
			t.Fatal(err)
		}
		s := sched22(Slot{
			Sends: []Send{{Src: 0, DestGroup: 1, Packet: 0}},
			Recvs: []Recv{{Proc: 2, SrcGroup: 0}},
		})
		st, tr, err := RunFaulty(s, fn)
		if err != nil {
			t.Fatalf("RunFaulty: %v", err)
		}
		if !st.Holds(2, 0) {
			t.Fatal("packet 0 not delivered to processor 2")
		}
		if len(tr.MaxHeld) != 1 {
			t.Fatalf("trace covers %d slots, want 1", len(tr.MaxHeld))
		}
	})
}

// TestReplayerMidTraceKill kills a coupler between slots: the slot already
// replayed is unaffected, and the very next slot that touches the newly dead
// coupler is rejected.
func TestReplayerMidTraceKill(t *testing.T) {
	s := sched22(
		Slot{Sends: []Send{{Src: 0, DestGroup: 1, Packet: 0}}, Recvs: []Recv{{Proc: 2, SrcGroup: 0}}},
		Slot{Sends: []Send{{Src: 1, DestGroup: 1, Packet: 1}}, Recvs: []Recv{{Proc: 3, SrcGroup: 0}}},
	)
	home := []int{0, 1, 2, 3}

	fn := NewFaultyNetwork(s.Net)
	r, err := NewReplayer(s, home, fn)
	if err != nil {
		t.Fatalf("NewReplayer: %v", err)
	}
	if ok, err := r.Step(); !ok || err != nil {
		t.Fatalf("slot 0: ok=%v err=%v", ok, err)
	}
	// The fault arrives mid-trace, between slots 0 and 1.
	if err := r.fn.KillCoupler(1, 0); err != nil {
		t.Fatal(err)
	}
	_, err = r.Step()
	if !errors.Is(err, ErrDeadCoupler) {
		t.Fatalf("slot 1 after mid-trace kill: %v, want ErrDeadCoupler", err)
	}
	var se *SlotError
	if !errors.As(err, &se) || se.Slot != 1 {
		t.Fatalf("violation not attributed to slot 1: %v", err)
	}

	// Same trace, but the mid-trace fault hits hardware slot 1 never uses:
	// the replay completes and delivers both packets.
	fn2 := NewFaultyNetwork(s.Net)
	r2, err := NewReplayer(s, home, fn2)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := r2.Step(); !ok || err != nil {
		t.Fatalf("slot 0: ok=%v err=%v", ok, err)
	}
	if err := r2.fn.KillCoupler(0, 1); err != nil {
		t.Fatal(err)
	}
	if ok, err := r2.Step(); !ok || err != nil {
		t.Fatalf("slot 1: ok=%v err=%v", ok, err)
	}
	if ok, _ := r2.Step(); ok {
		t.Fatal("Step reported progress past the last slot")
	}
	if !r2.st.Holds(2, 0) || !r2.st.Holds(3, 1) {
		t.Fatal("packets not delivered after benign mid-trace kill")
	}
	if r2.next != 2 || len(r2.tr.PacketsMoved) != 2 {
		t.Fatalf("next slot = %d, trace slots = %d", r2.next, len(r2.tr.PacketsMoved))
	}
}
