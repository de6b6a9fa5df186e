package service

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"pops"
	"pops/internal/popsnet"
)

// collectServiceStream drains a client stream and reassembles the slots by
// (Slot, Offset), returning the rebuilt schedule slots.
func collectServiceStream(t testing.TB, st *pops.ServiceStream) []popsnet.Slot {
	t.Helper()
	meta := st.Meta()
	slots := make([]popsnet.Slot, meta.Slots)
	for i := range slots {
		slots[i].Sends = nil
		slots[i].Recvs = nil
	}
	type frag struct{ rec pops.ServiceStreamSlot }
	perSlot := make([][]frag, meta.Slots)
	fragments := 0
	for {
		rec, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		fragments++
		if rec.Slot < 0 || rec.Slot >= meta.Slots {
			t.Fatalf("fragment for slot %d of %d", rec.Slot, meta.Slots)
		}
		perSlot[rec.Slot] = append(perSlot[rec.Slot], frag{rec: *rec})
	}
	if fragments != meta.Fragments {
		t.Fatalf("stream delivered %d fragments, meta promised %d", fragments, meta.Fragments)
	}
	if st.Done() == nil {
		t.Fatal("no done record")
	}
	for i, frags := range perSlot {
		// Place each fragment at its offset.
		size := 0
		for _, f := range frags {
			if end := f.rec.Offset + len(f.rec.Sends); end > size {
				size = end
			}
		}
		slots[i].Sends = make([]popsnet.Send, size)
		slots[i].Recvs = make([]popsnet.Recv, size)
		for _, f := range frags {
			copy(slots[i].Sends[f.rec.Offset:], f.rec.Sends)
			copy(slots[i].Recvs[f.rec.Offset:], f.rec.Recvs)
		}
	}
	return slots
}

// TestStreamEndToEnd opens a slot stream, reassembles the schedule from the
// fragments, and requires it to be identical to the batch /route schedule
// and to replay on the simulator.
func TestStreamEndToEnd(t *testing.T) {
	svc, client := newTestServer(t, Config{})
	const d, g = 4, 8
	ctx := context.Background()
	pi := pops.VectorReversal(d * g)

	st, err := client.ExecuteStream(ctx, d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	meta := st.Meta()
	if meta.D != d || meta.G != g || meta.Slots != pops.OptimalSlots(d, g) {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.Cached {
		t.Fatal("first stream claims a cache hit")
	}
	if meta.Strategy != pops.StrategyTheoremTwo {
		t.Fatalf("meta.Strategy = %q", meta.Strategy)
	}
	slots := collectServiceStream(t, st)

	// Batch schedule for the same permutation must match fragment-for-slot.
	resp, err := client.Do(ctx, &pops.ServiceRouteRequest{D: d, G: g, Pi: pi, IncludeSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := resp.Plans[0].Schedule
	if len(batch.Slots) != len(slots) {
		t.Fatalf("stream rebuilt %d slots, batch has %d", len(slots), len(batch.Slots))
	}
	for i := range slots {
		if len(slots[i].Sends) != len(batch.Slots[i].Sends) {
			t.Fatalf("slot %d: %d sends vs batch %d", i, len(slots[i].Sends), len(batch.Slots[i].Sends))
		}
		for j := range slots[i].Sends {
			if slots[i].Sends[j] != batch.Slots[i].Sends[j] || slots[i].Recvs[j] != batch.Slots[i].Recvs[j] {
				t.Fatalf("slot %d entry %d diverges from batch schedule", i, j)
			}
		}
	}
	sched := &popsnet.Schedule{Net: popsnet.Network{D: d, G: g}, Slots: slots}
	if _, err := popsnet.VerifyPermutationRouted(sched, pi); err != nil {
		t.Fatalf("reassembled stream schedule failed simulation: %v", err)
	}

	stats := svc.Stats()
	if stats.Streams != 1 {
		t.Fatalf("stats.streams = %d, want 1", stats.Streams)
	}
	if stats.StreamedSlots != uint64(meta.Fragments) {
		t.Fatalf("stats.streamed_slots = %d, want %d", stats.StreamedSlots, meta.Fragments)
	}
	var ttfs uint64
	for _, b := range stats.TimeToFirstSlot {
		ttfs += b.Count
	}
	if ttfs != 1 {
		t.Fatalf("time_to_first_slot histogram counted %d streams, want 1", ttfs)
	}
}

// TestStreamCacheHitReplaysWholeSlots pins the short-circuit: a stream of
// an already-cached permutation reports Cached and emits whole-slot
// fragments.
func TestStreamCacheHitReplaysWholeSlots(t *testing.T) {
	_, client := newTestServer(t, Config{})
	const d, g = 4, 8
	ctx := context.Background()
	pi := pops.VectorReversal(d * g)
	if _, err := client.Execute(ctx, d, g, pops.Permutation(pi)); err != nil {
		t.Fatal(err)
	}
	st, err := client.ExecuteStream(ctx, d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	meta := st.Meta()
	if !meta.Cached {
		t.Fatal("stream of a cached permutation was not a cache hit")
	}
	if meta.Fragments != meta.Slots {
		t.Fatalf("cached stream promises %d fragments for %d slots", meta.Fragments, meta.Slots)
	}
	for {
		rec, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		if rec.Color != -1 || !rec.Final || rec.Offset != 0 {
			t.Fatalf("cached fragment %+v is not a whole slot", rec)
		}
	}
}

// TestStreamVerifyOptionCachesAndReplays pins the -verify contract on the
// streaming path: the drained plan is replayed on the simulator before the
// done record, and memoized, so a second stream of the same permutation is
// a cache hit.
func TestStreamVerifyOptionCachesAndReplays(t *testing.T) {
	_, client := newTestServer(t, Config{PlannerOptions: []pops.Option{pops.WithVerify(true)}})
	const d, g = 4, 8
	ctx := context.Background()
	pi := pops.VectorReversal(d * g)
	st, err := client.ExecuteStream(ctx, d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	collectServiceStream(t, st) // must end in a done record, post-replay
	st.Close()
	st2, err := client.ExecuteStream(ctx, d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !st2.Meta().Cached {
		t.Fatal("verified streamed plan was not memoized (second stream missed the cache)")
	}
}

// TestStreamRequestValidation covers the request-level failure modes.
func TestStreamRequestValidation(t *testing.T) {
	raw := newRawServer(t, New(Config{}))
	client := pops.NewServiceClient(raw, nil)
	ctx := context.Background()
	if _, err := client.ExecuteStream(ctx, 0, 4, pops.Permutation([]int{0})); err == nil {
		t.Fatal("invalid shape accepted")
	}
	if _, err := client.ExecuteStream(ctx, 2, 2, pops.Permutation([]int{0, 0, 1, 2})); err == nil {
		t.Fatal("non-permutation accepted")
	}
	resp, err := http.Post(raw+"/route/stream", "application/json", strings.NewReader(`{"d":2,"g":2,"pis":[[0,1,2,3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch stream answered %d, want 400", resp.StatusCode)
	}
}

// TestStreamAdmitsRequestsMidFactorization is the ROADMAP property the
// streaming layer was built for: while one stream is open (its plan only
// partially delivered), the same shard keeps admitting and answering batch
// requests.
func TestStreamAdmitsRequestsMidFactorization(t *testing.T) {
	_, client := newTestServer(t, Config{})
	const d, g = 8, 16
	ctx := context.Background()
	pi := pops.VectorReversal(d * g)
	st, err := client.ExecuteStream(ctx, d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Consume exactly one fragment, leaving the stream mid-plan.
	if rec, err := st.Next(); err != nil || rec == nil {
		t.Fatalf("first fragment: %v %v", rec, err)
	}
	// The shard must still serve batch traffic promptly.
	other, err := pops.MeshShift(d, g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	doneCh := make(chan error, 1)
	go func() {
		_, err := client.Execute(ctx, d, g, pops.Permutation(other))
		doneCh <- err
	}()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatalf("batch request during stream: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch request blocked behind an open stream")
	}
	// Finish the stream normally.
	for {
		rec, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
	}
}

// TestCloseDrainsOpenStreams pins graceful drain for streams: a stream
// admitted before Close keeps delivering until its consumer has every
// remaining slot, and Close returns only after that.
func TestCloseDrainsOpenStreams(t *testing.T) {
	svc, client := newTestServer(t, Config{})
	const d, g = 8, 16
	ctx := context.Background()
	pi := pops.VectorReversal(d * g)
	st, err := client.ExecuteStream(ctx, d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec, err := st.Next(); err != nil || rec == nil {
		t.Fatalf("first fragment: %v %v", rec, err)
	}

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	// Close must not preempt the open stream: every remaining fragment and
	// the done record still arrive.
	got := 1
	for {
		rec, err := st.Next()
		if err != nil {
			t.Fatalf("fragment %d after Close began: %v", got, err)
		}
		if rec == nil {
			break
		}
		got++
	}
	if got != st.Meta().Fragments {
		t.Fatalf("drained %d of %d fragments", got, st.Meta().Fragments)
	}
	st.Close()
	select {
	case <-closed:
	case <-time.After(15 * time.Second):
		t.Fatal("service Close did not return after the stream drained")
	}
	// New admissions are rejected after Close.
	if _, err := client.ExecuteStream(ctx, d, g, pops.Permutation(pi)); err == nil || !strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("post-Close stream admitted (err = %v)", err)
	}
}
