package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pops"
	"pops/internal/popsnet"
	"pops/internal/wire"
	"pops/internal/wirebin"
)

// newCodecTestServer mounts a fresh service and returns the service plus the
// raw httptest server, for tests that drive negotiation headers directly.
func newCodecTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		svc.Close()
		srv.Close()
	})
	return svc, srv
}

func postRoute(t *testing.T, srv *httptest.Server, path string, body []byte, contentType, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestRouteBinaryResponseMatchesJSON pins unary cross-codec equivalence at
// the handler level: the same request answered in JSON and in binary decodes
// to identical plans, and the binary answer carries the negotiated
// Content-Type.
func TestRouteBinaryResponseMatchesJSON(t *testing.T) {
	_, srv := newCodecTestServer(t, Config{})
	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)
	body, err := json.Marshal(wire.RouteRequest{D: d, G: g, Pi: pi, IncludeSchedule: true})
	if err != nil {
		t.Fatal(err)
	}

	jsonResp := postRoute(t, srv, "/route", body, "application/json", "")
	if jsonResp.StatusCode != http.StatusOK {
		t.Fatalf("json status %d", jsonResp.StatusCode)
	}
	var fromJSON wire.RouteResponse
	if err := json.NewDecoder(jsonResp.Body).Decode(&fromJSON); err != nil {
		t.Fatal(err)
	}

	binResp := postRoute(t, srv, "/route", body, "application/json", wirebin.ContentType)
	if binResp.StatusCode != http.StatusOK {
		t.Fatalf("binary status %d", binResp.StatusCode)
	}
	if ct := binResp.Header.Get("Content-Type"); !wirebin.IsContentType(ct) {
		t.Fatalf("binary response Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(binResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	dec := wirebin.NewDecoder(bytes.NewReader(raw))
	typ, payload, err := dec.ReadFrame()
	if err != nil || typ != wirebin.FrameResponse {
		t.Fatalf("ReadFrame: typ=%d err=%v", typ, err)
	}
	var fromBin wire.RouteResponse
	if err := wirebin.DecodeResponse(payload, &fromBin); err != nil {
		t.Fatal(err)
	}

	// Request IDs are generated per request; everything else must agree.
	fromJSON.RequestID, fromBin.RequestID = "", ""
	// The second request hits the plan cache; normalize the flag.
	for i := range fromJSON.Plans {
		fromJSON.Plans[i].Cached = false
	}
	for i := range fromBin.Plans {
		fromBin.Plans[i].Cached = false
	}
	if !reflect.DeepEqual(fromJSON, fromBin) {
		t.Fatalf("codec mismatch:\n json %+v\n bin  %+v", fromJSON, fromBin)
	}
}

// TestRouteBinaryRequestBody drives /route with a binary-framed request body
// and checks it plans identically to the JSON body.
func TestRouteBinaryRequestBody(t *testing.T) {
	_, srv := newCodecTestServer(t, Config{})
	const d, g = 2, 4
	pi := pops.VectorReversal(d * g)
	wreq := wire.RouteRequest{D: d, G: g, Pi: pi}
	enc := wirebin.GetEncoder()
	frame := append([]byte(nil), enc.AppendRequest(&wreq)...)
	wirebin.PutEncoder(enc)

	resp := postRoute(t, srv, "/route", frame, wirebin.ContentType, wirebin.ContentType)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wirebin.NewDecoder(bytes.NewReader(raw)).ReadFrame()
	if err != nil || typ != wirebin.FrameResponse {
		t.Fatalf("ReadFrame: typ=%d err=%v", typ, err)
	}
	var rr wire.RouteResponse
	if err := wirebin.DecodeResponse(payload, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Plans) != 1 || rr.Plans[0].Error != "" {
		t.Fatalf("unexpected response: %+v", rr)
	}
	if rr.Plans[0].Slots != pops.OptimalSlots(d, g) {
		t.Fatalf("slots = %d, want %d", rr.Plans[0].Slots, pops.OptimalSlots(d, g))
	}

	// A corrupt binary body must 400, not crash or hang.
	bad := postRoute(t, srv, "/route", frame[:len(frame)-2], wirebin.ContentType, "")
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt body status %d, want 400", bad.StatusCode)
	}
}

// TestRouteRequestCodecsAgree pins the request codecs against each other at
// the handler: the response script — every workload kind, a cache-hit
// replay, a batch and the malformed combinations — sent as JSON bodies and
// as FrameRequest bodies, each run on a fresh service under the same
// X-Request-Id per step, gets byte-identical statuses, content types and
// bodies (error texts included) on both endpoints in both response codecs.
func TestRouteRequestCodecsAgree(t *testing.T) {
	run := func(path, accept string, binary bool) []string {
		svc := New(Config{Name: "codec-node"})
		defer svc.Close()
		h := svc.Handler()
		enc := wirebin.GetEncoder()
		defer wirebin.PutEncoder(enc)
		var out []string
		for i, step := range responseScript() {
			body, err := json.Marshal(step)
			if err != nil {
				t.Fatal(err)
			}
			ct := "application/json"
			if binary {
				body, ct = append([]byte(nil), enc.AppendRequest(&step)...), wirebin.ContentType
			}
			req := httptest.NewRequest("POST", path, bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			req.Header.Set("X-Request-Id", fmt.Sprintf("codec-%d", i))
			if accept != "" {
				req.Header.Set("Accept", accept)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			out = append(out, fmt.Sprintf("step %d: %d %s %q", i, rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes()))
		}
		return out
	}
	for _, path := range []string{"/route", "/route/stream"} {
		for _, accept := range []string{"", wirebin.ContentType} {
			fromJSON, fromBin := run(path, accept, false), run(path, accept, true)
			for i := range fromJSON {
				if fromJSON[i] != fromBin[i] {
					t.Errorf("%s accept=%q:\n json body   %s\n binary body %s", path, accept, fromJSON[i], fromBin[i])
				}
			}
		}
	}
}

// TestStreamNegotiation pins the default surface: empty and unknown Accept
// values stream NDJSON exactly as before, and only an explicit
// application/x-pops-bin flips the stream to binary frames.
func TestStreamNegotiation(t *testing.T) {
	svc, srv := newCodecTestServer(t, Config{})
	const d, g = 2, 4
	body, err := json.Marshal(wire.RouteRequest{D: d, G: g, Pi: pops.VectorReversal(d * g)})
	if err != nil {
		t.Fatal(err)
	}

	for _, accept := range []string{"", "application/weird", "application/json, text/html", "*/*"} {
		resp := postRoute(t, srv, "/route/stream", body, "application/json", accept)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept=%q: status %d", accept, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Accept=%q: Content-Type %q, want NDJSON", accept, ct)
		}
		// The body must be plain NDJSON records ending in done.
		var last wire.StreamRecord
		dec := json.NewDecoder(resp.Body)
		for dec.More() {
			last = wire.StreamRecord{}
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("Accept=%q: decode: %v", accept, err)
			}
		}
		if last.Type != "done" {
			t.Fatalf("Accept=%q: last record %q, want done", accept, last.Type)
		}
	}

	resp := postRoute(t, srv, "/route/stream", body, "application/json", wirebin.ContentType)
	if ct := resp.Header.Get("Content-Type"); !wirebin.IsContentType(ct) {
		t.Fatalf("binary stream Content-Type = %q", ct)
	}
	dec := wirebin.NewDecoder(resp.Body)
	var types []byte
	for {
		typ, _, err := dec.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		types = append(types, typ)
	}
	if len(types) < 3 || types[0] != wirebin.FrameMeta || types[len(types)-1] != wirebin.FrameDone {
		t.Fatalf("frame types %v, want meta ... done", types)
	}

	// Both codecs fed the per-codec ledger.
	var ndjson, binary *wire.WireCodecStats
	codecs := svc.Stats().WireCodecs
	for i := range codecs {
		switch codecs[i].Codec {
		case wire.CodecNDJSON:
			ndjson = &codecs[i]
		case wire.CodecBinary:
			binary = &codecs[i]
		}
	}
	if ndjson == nil || ndjson.Streams != 4 || ndjson.StreamedBytes == 0 {
		t.Fatalf("ndjson ledger %+v, want 4 streams with bytes", ndjson)
	}
	if binary == nil || binary.Streams != 1 || binary.StreamedBytes == 0 {
		t.Fatalf("binary ledger %+v, want 1 stream with bytes", binary)
	}
}

// scheduleText renders a reassembled slot sequence in the canonical popsnet
// text form, the byte-identity yardstick for cross-codec comparisons.
func scheduleText(t testing.TB, d, g int, slots []popsnet.Slot) string {
	t.Helper()
	var buf bytes.Buffer
	sched := &popsnet.Schedule{Net: popsnet.Network{D: d, G: g}, Slots: slots}
	if err := sched.Format(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// crossCodecCheck streams pi once per codec, reassembles both plans, and
// requires the binary text form to be byte-identical to the NDJSON form and
// to the locally planned schedule.
func crossCodecCheck(t testing.TB, client *pops.ServiceClient, d, g int, pi []int) {
	t.Helper()
	ctx := context.Background()

	binSt, err := client.WithCodec(pops.CodecBinary).ExecuteStream(ctx, d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	binSlots := collectServiceStream(t, binSt)
	binSt.Close()

	jsonSt, err := client.WithCodec(pops.CodecJSON).ExecuteStream(ctx, d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	jsonSlots := collectServiceStream(t, jsonSt)
	jsonSt.Close()

	binText := scheduleText(t, d, g, binSlots)
	jsonText := scheduleText(t, d, g, jsonSlots)
	if binText != jsonText {
		t.Fatalf("d=%d g=%d: binary and NDJSON streams reassemble differently.\nbinary:\n%s\nndjson:\n%s", d, g, binText, jsonText)
	}

	p, err := pops.NewPlanner(d, g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Execute(ctx, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if err := plan.Schedule().Format(&local); err != nil {
		t.Fatal(err)
	}
	if binText != local.String() {
		t.Fatalf("d=%d g=%d: binary stream diverges from local Execute.\nbinary:\n%s\nlocal:\n%s", d, g, binText, local.String())
	}
}

// TestStreamCrossCodecCollectEquivalence is the correctness anchor of the
// binary codec: across shapes and seeds, the schedule reassembled from a
// binary stream is byte-identical (canonical popsnet text form) to the one
// reassembled from the NDJSON stream and to the locally planned schedule.
// Later seeds replay through the plan cache, so the whole-slot cached
// fragmentation is pinned to the same equivalence.
func TestStreamCrossCodecCollectEquivalence(t *testing.T) {
	_, client := newTestServer(t, Config{})
	for _, s := range []struct{ d, g int }{{1, 5}, {2, 4}, {4, 8}, {8, 8}} {
		for seed := int64(0); seed < 3; seed++ {
			pi := pops.RandomPermutation(s.d*s.g, rand.New(rand.NewSource(seed)))
			crossCodecCheck(t, client, s.d, s.g, pi)
		}
	}
}

// FuzzStreamCrossCodec is the native-fuzzer form of the cross-codec anchor:
// fuzzer-chosen shapes and permutation seeds must reassemble identically
// from binary and NDJSON streams and match the local planner.
func FuzzStreamCrossCodec(f *testing.F) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	f.Cleanup(func() {
		svc.Close()
		srv.Close()
	})
	client := pops.NewServiceClient(srv.URL, srv.Client())

	f.Add(uint8(2), uint8(4), int64(1))
	f.Add(uint8(4), uint8(2), int64(2))
	f.Add(uint8(1), uint8(6), int64(3))
	f.Add(uint8(3), uint8(3), int64(4))
	f.Fuzz(func(t *testing.T, dSeed, gSeed uint8, seed int64) {
		d := int(dSeed)%6 + 1
		g := int(gSeed)%6 + 1
		pi := pops.RandomPermutation(d*g, rand.New(rand.NewSource(seed)))
		crossCodecCheck(t, client, d, g, pi)
	})
}
