package popsnet

import "testing"

func TestComputeStats(t *testing.T) {
	nw := mustNet(t, 1, 2)
	swap := Slot{
		Sends: []Send{{Src: 0, DestGroup: 1, Packet: 0}, {Src: 1, DestGroup: 0, Packet: 1}},
		Recvs: []Recv{{Proc: 1, SrcGroup: 0}, {Proc: 0, SrcGroup: 1}},
	}
	st := ComputeStats(&Schedule{Net: nw, Slots: []Slot{swap}})
	if st.Slots != 1 || st.Sends != 2 || st.Recvs != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CouplersUsed != 2 || st.MaxCouplers != 4 {
		t.Fatalf("coupler stats = %+v", st)
	}
	if st.Utilization != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", st.Utilization)
	}
	if st.BroadcastOnly {
		t.Fatal("no broadcast in schedule")
	}

	// A broadcast schedule sets BroadcastOnly.
	b, err := OneToAll(nw, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bs := ComputeStats(b); !bs.BroadcastOnly {
		t.Fatal("broadcast not detected")
	}

	// Empty schedule: utilization 0, no division by zero.
	empty := ComputeStats(&Schedule{Net: nw})
	if empty.Utilization != 0 {
		t.Fatalf("empty utilization = %v", empty.Utilization)
	}
}
