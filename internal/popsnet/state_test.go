package popsnet

import "testing"

func TestNewCustomState(t *testing.T) {
	nw := mustNet(t, 2, 2)
	st, err := NewCustomState(nw, []int{0, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Holds(0, 0) || !st.Holds(0, 1) || !st.Holds(3, 2) {
		t.Fatal("custom placement wrong")
	}
	if st.Holds(0, 2) {
		t.Fatal("proc 0 holds packet 2, which was placed at proc 3")
	}
	if _, err := NewCustomState(nw, []int{9}); err == nil {
		t.Fatal("out-of-range home accepted")
	}
}

func TestRunFromMultiPacketSource(t *testing.T) {
	// Proc 0 holds packets 0 and 1; ship them to procs 2 and 3 in two slots.
	nw := mustNet(t, 2, 2)
	sched := &Schedule{Net: nw, Slots: []Slot{
		{
			Sends: []Send{{Src: 0, DestGroup: 1, Packet: 0}},
			Recvs: []Recv{{Proc: 2, SrcGroup: 0}},
		},
		{
			Sends: []Send{{Src: 0, DestGroup: 1, Packet: 1}},
			Recvs: []Recv{{Proc: 3, SrcGroup: 0}},
		},
	}}
	st, tr, err := RunFrom(sched, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Holds(2, 0) || !st.Holds(3, 1) {
		t.Fatal("multi-packet shipment failed")
	}
	// After slot 0, proc 0 has shipped packet 0 and retains only packet 1.
	if tr.MaxHeld[0] != 1 {
		t.Fatalf("MaxHeld[0] = %d, want 1", tr.MaxHeld[0])
	}
}

func TestRunFromSendingUnheldPacketFails(t *testing.T) {
	nw := mustNet(t, 2, 2)
	sched := &Schedule{Net: nw, Slots: []Slot{
		{Sends: []Send{{Src: 1, DestGroup: 1, Packet: 0}}},
	}}
	if _, _, err := RunFrom(sched, []int{0}); err == nil {
		t.Fatal("send of unheld packet accepted")
	}
}

func TestVerifyDelivery(t *testing.T) {
	nw := mustNet(t, 1, 2)
	sched := &Schedule{Net: nw, Slots: []Slot{
		{
			Sends: []Send{{Src: 0, DestGroup: 1, Packet: 0}},
			Recvs: []Recv{{Proc: 1, SrcGroup: 0}},
		},
	}}
	if _, err := VerifyDelivery(sched, []int{0}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDelivery(sched, []int{0}, []int{0}); err == nil {
		t.Fatal("wrong destination accepted")
	}
	// Don't-care entries skip the check.
	if _, err := VerifyDelivery(sched, []int{0}, []int{-1}); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDelivery(sched, []int{0}, []int{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := VerifyDelivery(sched, []int{0}, []int{99}); err == nil {
		t.Fatal("invalid wanted processor accepted")
	}
}
