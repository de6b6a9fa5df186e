package service

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"pops"
	"pops/internal/popsnet"
	"pops/internal/wire"
)

// testRelation builds a deterministic saturated h-relation on n processors.
func testRelation(n, h int) []pops.Request {
	reqs := make([]pops.Request, 0, n*h)
	for k := 0; k < h; k++ {
		for s := 0; s < n; s++ {
			reqs = append(reqs, pops.Request{Src: s, Dst: (s + k + 1) % n})
		}
	}
	return reqs
}

// TestWorkloadHRelationRoundTrip drives an h-relation through both wire
// surfaces: POST /route (tagged workload, full schedule) and POST
// /route/stream, requiring the streamed slots to reassemble into the exact
// batch schedule, the plan cache to answer the replay, and the delivery to
// replay on the simulator.
func TestWorkloadHRelationRoundTrip(t *testing.T) {
	_, client := newTestServer(t, Config{})
	const d, g, h = 2, 4, 3
	n := d * g
	ctx := context.Background()
	reqs := testRelation(n, h)
	w := pops.HRelation(reqs)

	first, err := client.Execute(ctx, d, g, w)
	if err != nil {
		t.Fatal(err)
	}
	wantSlots := h * pops.OptimalSlots(d, g)
	if first.Workload != wire.WorkloadHRelation || first.H != h || first.Slots != wantSlots || first.Cached {
		t.Fatalf("first execute = %+v, want uncached %q h=%d slots=%d", first, wire.WorkloadHRelation, h, wantSlots)
	}
	second, err := client.Execute(ctx, d, g, w)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second execute of the same h-relation missed the workload plan cache")
	}

	// The batch schedule over the wire, for the stream comparison below.
	wireReqs := make([]wire.Request, len(reqs))
	for i, r := range reqs {
		wireReqs[i] = wire.Request{Src: r.Src, Dst: r.Dst}
	}
	resp, err := client.Do(ctx, &pops.ServiceRouteRequest{
		D: d, G: g, Workload: wire.WorkloadHRelation, Requests: wireReqs, IncludeSchedule: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Plans) != 1 || resp.Plans[0].Schedule == nil {
		t.Fatalf("workload /route returned %+v", resp)
	}
	batchSched := resp.Plans[0].Schedule

	st, err := client.ExecuteStream(ctx, d, g, w)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	meta := st.Meta()
	if meta.Workload != wire.WorkloadHRelation || meta.Strategy != pops.StrategyHRelation || meta.Slots != wantSlots {
		t.Fatalf("stream meta = %+v", meta)
	}
	slots := collectServiceStream(t, st)
	st.Close()

	streamSched := &popsnet.Schedule{Net: batchSched.Net, Slots: slots}
	var sb, bb bytes.Buffer
	if err := streamSched.Format(&sb); err != nil {
		t.Fatal(err)
	}
	if err := batchSched.Format(&bb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != bb.String() {
		t.Fatalf("streamed schedule diverges from batch:\n%s\nvs\n%s", sb.String(), bb.String())
	}

	// Replay the delivery on the simulator: every request must arrive.
	home := make([]int, len(reqs))
	want := make([]int, len(reqs))
	for i, r := range reqs {
		home[i] = r.Src
		want[i] = r.Dst
	}
	if _, err := popsnet.VerifyDelivery(streamSched, home, want); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadAllToAllAndOneToAll covers the remaining workload kinds over
// the wire: the complete exchange (cached on replay — it is fully
// determined by the shape) and the broadcast.
func TestWorkloadAllToAllAndOneToAll(t *testing.T) {
	svc, client := newTestServer(t, Config{})
	const d, g = 2, 2
	n := d * g
	ctx := context.Background()

	first, err := client.Execute(ctx, d, g, pops.AllToAll())
	if err != nil {
		t.Fatal(err)
	}
	if first.H != n-1 || first.Slots != (n-1)*pops.OptimalSlots(d, g) || first.Cached {
		t.Fatalf("all-to-all = %+v", first)
	}
	second, err := client.Execute(ctx, d, g, pops.AllToAll())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeated all-to-all missed the plan cache")
	}

	bc, err := client.Execute(ctx, d, g, pops.OneToAll(2))
	if err != nil {
		t.Fatal(err)
	}
	if bc.Workload != wire.WorkloadOneToAll || bc.Slots != 1 {
		t.Fatalf("one-to-all = %+v", bc)
	}
	// Planning failures stay per-entry: an out-of-range speaker.
	if _, err := client.Execute(ctx, d, g, pops.OneToAll(99)); err == nil {
		t.Fatal("out-of-range speaker accepted")
	}
	// Strategy selection is a permutation-only concept.
	if _, err := client.Do(ctx, &pops.ServiceRouteRequest{
		D: d, G: g, Workload: wire.WorkloadAllToAll, Strategy: "greedy",
	}); err == nil {
		t.Fatal("strategy on a non-permutation workload accepted")
	}
	// A nil workload is a request-level error on both entry points.
	if _, err := svc.Execute(ctx, d, g, nil); !errors.Is(err, pops.ErrNilWorkload) {
		t.Fatalf("Execute(nil) = %v, want pops.ErrNilWorkload", err)
	}
	if _, err := svc.ExecuteStream(ctx, d, g, nil); !errors.Is(err, pops.ErrNilWorkload) {
		t.Fatalf("ExecuteStream(nil) = %v, want pops.ErrNilWorkload", err)
	}
}
