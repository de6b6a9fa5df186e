package pops

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"pops/internal/wire"
	"pops/internal/wirebin"
)

// countingServer wraps an httptest server and counts distinct TCP
// connections accepted, so tests can pin connection reuse: error paths that
// fail to drain response bodies tear pooled connections down, and every
// subsequent request then opens a fresh one.
func countingServer(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

// TestServiceClientNon2xxReusesConnections drives repeated failing requests
// and asserts the client keeps reusing one pooled connection: non-2xx
// responses must be drained and closed, not abandoned mid-body.
func TestServiceClientNon2xxReusesConnections(t *testing.T) {
	srv, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "service: synthetic failure", http.StatusBadRequest)
	}))
	client := NewServiceClient(srv.URL, &http.Client{Transport: &http.Transport{}})
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		if _, err := client.Execute(ctx, 4, 8, Permutation(VectorReversal(32))); err == nil {
			t.Fatal("non-2xx response produced no error")
		} else if !strings.Contains(err.Error(), "synthetic failure") {
			t.Fatalf("error %v does not carry the response body", err)
		}
	}
	if got := conns.Load(); got > 2 {
		t.Fatalf("10 failing round-trips opened %d connections; bodies are not being drained", got)
	}
}

// TestServiceClientDecodeFailureReusesConnections covers the other
// round-trip error path: a 200 whose body is not the expected JSON must
// still leave the connection reusable.
func TestServiceClientDecodeFailureReusesConnections(t *testing.T) {
	srv, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"plans": "not-an-array"}`)
	}))
	client := NewServiceClient(srv.URL, &http.Client{Transport: &http.Transport{}})
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		if _, err := client.Execute(ctx, 4, 8, Permutation(VectorReversal(32))); err == nil {
			t.Fatal("malformed response body produced no error")
		}
	}
	if got := conns.Load(); got > 2 {
		t.Fatalf("10 decode failures opened %d connections; bodies are not being drained", got)
	}
}

// TestServiceClientStreamNon2xx pins that a refused stream surfaces the
// server's error text and keeps the connection pool healthy.
func TestServiceClientStreamNon2xx(t *testing.T) {
	srv, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "service: stream refused", http.StatusServiceUnavailable)
	}))
	client := NewServiceClient(srv.URL, &http.Client{Transport: &http.Transport{}})
	for i := 0; i < 5; i++ {
		_, err := client.ExecuteStream(context.Background(), 4, 8, Permutation(VectorReversal(32)))
		if err == nil || !strings.Contains(err.Error(), "stream refused") {
			t.Fatalf("refused stream error = %v", err)
		}
	}
	if got := conns.Load(); got > 2 {
		t.Fatalf("5 refused streams opened %d connections; bodies are not being drained", got)
	}
}

// streamHandler writes the given NDJSON records (any strings), flushing
// each, then optionally hangs up the TCP connection without finishing the
// response.
func streamHandler(records []string, hangup bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fl := w.(http.Flusher)
		for _, rec := range records {
			fmt.Fprintln(w, rec)
			fl.Flush()
		}
		if hangup {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}
	})
}

func metaRecord(t *testing.T, fragments int) string {
	t.Helper()
	rec, err := json.Marshal(wire.StreamRecord{Type: "meta", Meta: &wire.StreamMeta{
		D: 4, G: 8, Slots: 2, Fragments: fragments, Strategy: "theorem2",
	}})
	if err != nil {
		t.Fatal(err)
	}
	return string(rec)
}

func slotRecord(t *testing.T, slot int) string {
	t.Helper()
	rec, err := json.Marshal(wire.StreamRecord{Type: "slot", Slot: &wire.StreamSlot{Slot: slot}})
	if err != nil {
		t.Fatal(err)
	}
	return string(rec)
}

// TestServiceClientMalformedMidStream pins that garbage between valid
// NDJSON records surfaces as an error from Next — never a silently
// truncated plan.
func TestServiceClientMalformedMidStream(t *testing.T) {
	srv := httptest.NewServer(streamHandler([]string{
		metaRecord(t, 8), slotRecord(t, 0), "{not json", slotRecord(t, 1),
	}, false))
	t.Cleanup(srv.Close)
	client := NewServiceClient(srv.URL, nil)

	st, err := client.ExecuteStream(context.Background(), 4, 8, Permutation(VectorReversal(32)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec, err := st.Next(); err != nil || rec == nil {
		t.Fatalf("first slot: %v %v", rec, err)
	}
	if _, err := st.Next(); err == nil {
		t.Fatal("malformed record mid-stream produced no error")
	}
	if st.Done() != nil {
		t.Fatal("broken stream reported a done record")
	}
	// The error is sticky: further Next calls keep failing.
	if _, err := st.Next(); err == nil {
		t.Fatal("stream error was not sticky")
	}
}

// TestServiceClientHangupMidStream pins that a backend dying mid-stream —
// connection torn down before the done record — surfaces as an error, not
// as a short plan that looks complete.
func TestServiceClientHangupMidStream(t *testing.T) {
	srv := httptest.NewServer(streamHandler([]string{
		metaRecord(t, 8), slotRecord(t, 0), slotRecord(t, 1),
	}, true))
	t.Cleanup(srv.Close)
	client := NewServiceClient(srv.URL, nil)

	st, err := client.ExecuteStream(context.Background(), 4, 8, Permutation(VectorReversal(32)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := 0
	for {
		rec, err := st.Next()
		if err != nil {
			break // the hang-up must arrive as an error…
		}
		if rec == nil {
			t.Fatalf("stream ended cleanly after %d of 8 promised fragments", got)
		}
		got++
		if got > 8 {
			t.Fatal("more fragments than promised")
		}
	}
	if got != 2 {
		t.Fatalf("delivered %d fragments before the hang-up, want 2", got)
	}
	if st.Done() != nil {
		t.Fatal("hung-up stream reported a done record")
	}
}

// TestServiceClientErrorRecordMidStream pins the in-band failure path: an
// "error" record surfaces through Next with the server's message.
func TestServiceClientErrorRecordMidStream(t *testing.T) {
	errRec, err := json.Marshal(wire.StreamRecord{Type: "error", Error: "planning exploded"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(streamHandler([]string{
		metaRecord(t, 8), slotRecord(t, 0), string(errRec),
	}, false))
	t.Cleanup(srv.Close)
	client := NewServiceClient(srv.URL, nil)

	st, err := client.ExecuteStream(context.Background(), 4, 8, Permutation(VectorReversal(32)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec, err := st.Next(); err != nil || rec == nil {
		t.Fatalf("first slot: %v %v", rec, err)
	}
	_, err = st.Next()
	if err == nil || !strings.Contains(err.Error(), "planning exploded") {
		t.Fatalf("error record surfaced as %v", err)
	}
}

// TestWorkloadRequestHRelationAllocs pins both sides of the wire form of
// the served h-relation shape, a 4-relation on POPS(16,16) of 1024 pairs:
// workloadRouteRequest and WorkloadFromRequest each allocate at most one
// object (the request, or the boxed workload) and share the request list
// instead of copying it.
func TestWorkloadRequestHRelationAllocs(t *testing.T) {
	const d, g, h = 16, 16, 4
	reqs := randomRelation(d*g, h, rand.New(rand.NewSource(28)))
	w := HRelation(reqs)
	var req *ServiceRouteRequest
	if got := testing.AllocsPerRun(100, func() {
		var err error
		if req, err = workloadRouteRequest(d, g, w); err != nil {
			panic(err)
		}
	}); got > 1 {
		t.Errorf("workloadRouteRequest of a %d-pair h-relation: %v allocs/op, want ≤ 1", len(reqs), got)
	}
	if &req.Requests[0] != &reqs[0] || len(req.Requests) != len(reqs) {
		t.Error("workloadRouteRequest copied the request list")
	}
	var back Workload
	if got := testing.AllocsPerRun(100, func() {
		var err error
		if back, err = WorkloadFromRequest(req); err != nil {
			panic(err)
		}
	}); got > 1 {
		t.Errorf("WorkloadFromRequest of a %d-pair h-relation: %v allocs/op, want ≤ 1", len(reqs), got)
	}
	if hw, ok := back.(hrelationWorkload); !ok || &hw.reqs[0] != &reqs[0] || len(hw.reqs) != len(reqs) {
		t.Error("WorkloadFromRequest copied the request list")
	}
}

// TestWorkloadFromRequestRoundTrip is the property that makes the wire form
// single: for random shapes and every workload kind, decoding the client's
// encoding — directly and after a JSON hop — gives back a workload of the
// same kind and WorkloadFingerprint, so the service plans, and the proxy
// places, exactly what the client sent. Every malformed kind/payload
// combination decodes to an error.
func TestWorkloadFromRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		d, g := 1+rng.Intn(5), 1+rng.Intn(5)
		n := d * g
		reqs := make([]Request, 1+rng.Intn(2*n))
		for i := range reqs {
			reqs[i] = Request{Src: rng.Intn(n), Dst: rng.Intn(n)}
		}
		var fs FaultSet
		for i := rng.Intn(4); i > 0; i-- {
			fs.Couplers = append(fs.Couplers, Coupler{B: rng.Intn(g), A: rng.Intn(g)})
		}
		for i := rng.Intn(3); i > 0; i-- {
			fs.Groups = append(fs.Groups, rng.Intn(g))
		}
		for _, w := range []Workload{
			Permutation(RandomPermutation(n, rng)),
			HRelation(reqs),
			AllToAll(),
			OneToAll(rng.Intn(n)),
			FaultyPermutation(RandomPermutation(n, rng), fs),
		} {
			req, err := workloadRouteRequest(d, g, w)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			var hop ServiceRouteRequest
			if err := json.Unmarshal(blob, &hop); err != nil {
				t.Fatal(err)
			}
			for _, r := range []*ServiceRouteRequest{req, &hop} {
				got, err := WorkloadFromRequest(r)
				if err != nil {
					t.Fatalf("POPS(%d,%d) %s: decoding %s: %v", d, g, w.Kind(), blob, err)
				}
				if got.Kind() != w.Kind() || WorkloadFingerprint(got) != WorkloadFingerprint(w) {
					t.Fatalf("POPS(%d,%d) %s: decoded %s with fingerprint %#x, want %s %#x",
						d, g, w.Kind(), got.Kind(), WorkloadFingerprint(got), w.Kind(), WorkloadFingerprint(w))
				}
			}
		}
	}

	pi := []int{1, 0, 3, 2}
	faults := &wire.FaultSet{Couplers: []wire.Coupler{{B: 1, A: 0}}}
	reqs := []wire.Request{{Src: 0, Dst: 1}}
	for i, req := range []ServiceRouteRequest{
		{},
		{Pi: pi, Pis: [][]int{pi}},
		{Pi: pi, Faults: faults},
		{Pis: [][]int{pi}, Faults: faults},
		{Workload: WorkloadPermutation, Pi: pi, Faults: faults},
		{Workload: WorkloadHRelation, Requests: reqs, Pi: pi},
		{Workload: WorkloadHRelation, Requests: reqs, Pis: [][]int{pi}},
		{Workload: WorkloadHRelation, Requests: reqs, Faults: faults},
		{Workload: WorkloadAllToAll, Pi: pi},
		{Workload: WorkloadAllToAll, Pis: [][]int{pi}},
		{Workload: WorkloadAllToAll, Requests: reqs},
		{Workload: WorkloadAllToAll, Faults: faults},
		{Workload: WorkloadOneToAll, Pi: pi},
		{Workload: WorkloadOneToAll, Pis: [][]int{pi}},
		{Workload: WorkloadOneToAll, Requests: reqs},
		{Workload: WorkloadOneToAll, Faults: faults},
		{Workload: WorkloadFaultyPermutation},
		{Workload: WorkloadFaultyPermutation, Faults: faults},
		{Workload: WorkloadFaultyPermutation, Pi: pi, Pis: [][]int{pi}},
		{Workload: WorkloadFaultyPermutation, Pi: pi, Requests: reqs},
		{Workload: "gossip"},
		{Workload: "gossip", Pi: pi},
	} {
		req.D, req.G = 2, 2
		if w, err := WorkloadFromRequest(&req); err == nil || errors.Is(err, ErrBatchRequest) {
			t.Errorf("malformed request %d (%+v) decoded to %v, %v; want a malformed-request error", i, req, w, err)
		}
	}
	for _, kind := range []string{"", WorkloadPermutation} {
		batch := ServiceRouteRequest{D: 2, G: 2, Workload: kind, Pis: [][]int{pi, pi}}
		if _, err := WorkloadFromRequest(&batch); !errors.Is(err, ErrBatchRequest) {
			t.Errorf("batch of kind %q decoded to %v, want ErrBatchRequest", kind, err)
		}
	}
}

// FuzzRequestCrossCodec pins the two request codecs against each other: a
// ServiceRouteRequest of a fuzzer-chosen shape, kind and payload mix —
// well-formed or not, an unknown kind included — is encoded as JSON and as
// one FrameRequest, and both bodies, read back through the servers' one
// decoder (wirebin.DecodeRequestBody), carry the same shape and routing
// fields and decode through WorkloadFromRequest to the same kind and
// WorkloadFingerprint, or to the same error.
func FuzzRequestCrossCodec(f *testing.F) {
	for kind := uint8(0); kind < 7; kind++ {
		f.Add(int64(kind), kind, uint8(2), uint8(4), uint8(0))
		f.Add(int64(kind), kind, uint8(3), uint8(3), uint8(0xff))
	}
	kinds := []string{"", WorkloadPermutation, WorkloadHRelation, WorkloadAllToAll, WorkloadOneToAll, WorkloadFaultyPermutation, "gossip"}
	f.Fuzz(func(t *testing.T, seed int64, kind, dSeed, gSeed, mix uint8) {
		rng := rand.New(rand.NewSource(seed))
		d, g := int(dSeed)%6, int(gSeed)%6
		n := d * g
		val := func() int { return rng.Intn(n+4) - 2 } // out-of-range values too: planning rejects them, decoding must not
		ints := func(k int) []int {
			out := make([]int, k)
			for i := range out {
				out[i] = val()
			}
			return out
		}
		req := ServiceRouteRequest{D: d, G: g, Workload: kinds[int(kind)%len(kinds)], Speaker: val(),
			IncludeSchedule: mix&1 != 0}
		// Each payload field is present by its kind's rule, or by a fuzzer bit.
		perm := req.Workload == "" || req.Workload == WorkloadPermutation || req.Workload == WorkloadFaultyPermutation
		if perm && mix&2 == 0 || mix&4 != 0 {
			req.Pi = RandomPermutation(n, rng)
			if mix&8 != 0 {
				req.Pi = ints(n)
			}
		}
		if mix&16 != 0 {
			req.Pis = [][]int{RandomPermutation(n, rng), ints(n)}
		}
		if req.Workload == WorkloadHRelation && mix&2 == 0 || mix&32 != 0 {
			for i := rng.Intn(2*n + 1); i > 0; i-- {
				req.Requests = append(req.Requests, wire.Request{Src: val(), Dst: val()})
			}
		}
		if req.Workload == WorkloadFaultyPermutation && mix&2 == 0 || mix&64 != 0 {
			req.Faults = &wire.FaultSet{Couplers: []wire.Coupler{{B: val(), A: val()}}, Groups: ints(rng.Intn(3))}
		}
		if mix&128 != 0 {
			req.Tenant, req.Strategy = "gold", "theorem2"
		}

		var jsonBody bytes.Buffer
		if err := json.NewEncoder(&jsonBody).Encode(&req); err != nil {
			t.Fatal(err)
		}
		enc := wirebin.GetEncoder()
		binBody := append([]byte(nil), enc.AppendRequest(&req)...)
		wirebin.PutEncoder(enc)
		var fromJSON, fromBin ServiceRouteRequest
		if err := wirebin.DecodeRequestBody("application/json", &jsonBody, &fromJSON); err != nil {
			t.Fatalf("JSON body of %+v: %v", req, err)
		}
		if err := wirebin.DecodeRequestBody(wirebin.ContentType, bytes.NewReader(binBody), &fromBin); err != nil {
			t.Fatalf("binary body of %+v: %v", req, err)
		}
		if fromJSON.D != fromBin.D || fromJSON.G != fromBin.G || fromJSON.Workload != fromBin.Workload ||
			fromJSON.Tenant != fromBin.Tenant || fromJSON.Strategy != fromBin.Strategy ||
			fromJSON.IncludeSchedule != fromBin.IncludeSchedule || fromJSON.D != req.D || fromJSON.G != req.G {
			t.Fatalf("codecs disagree on the request fields of %+v:\n json   %+v\n binary %+v", req, fromJSON, fromBin)
		}
		wJSON, errJSON := WorkloadFromRequest(&fromJSON)
		wBin, errBin := WorkloadFromRequest(&fromBin)
		switch {
		case (errJSON == nil) != (errBin == nil):
			t.Fatalf("request %+v: JSON decodes to %v, binary to %v", req, errJSON, errBin)
		case errJSON != nil:
			if errJSON.Error() != errBin.Error() || errors.Is(errJSON, ErrBatchRequest) != errors.Is(errBin, ErrBatchRequest) {
				t.Fatalf("request %+v: JSON error %v, binary error %v", req, errJSON, errBin)
			}
			if errors.Is(errJSON, ErrBatchRequest) && batchFold(fromJSON.Pis) != batchFold(fromBin.Pis) {
				t.Fatalf("batch %+v: JSON pis %v, binary pis %v", req, fromJSON.Pis, fromBin.Pis)
			}
		case wJSON.Kind() != wBin.Kind() || WorkloadFingerprint(wJSON) != WorkloadFingerprint(wBin):
			t.Fatalf("request %+v: JSON decodes to %s %#x, binary to %s %#x",
				req, wJSON.Kind(), WorkloadFingerprint(wJSON), wBin.Kind(), WorkloadFingerprint(wBin))
		}
	})
}

// batchFold folds a batch's member count and fingerprints into one value.
func batchFold(pis [][]int) uint64 {
	fp := uint64(len(pis))
	for _, pi := range pis {
		fp = fp*31 + PermutationFingerprint(pi)
	}
	return fp
}
