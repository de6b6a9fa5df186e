package pops

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"pops/internal/popsnet"
	"pops/internal/wire"
	"pops/internal/wire/wiretest"
	"pops/internal/wirebin"
)

// binaryStreamBytes encodes a meta + slots + trailer binary stream. trailer
// frames are appended verbatim, so tests can end streams with done, error,
// or garbage.
func binaryStreamBytes(t *testing.T, slots []wire.StreamSlot, trailer ...[]byte) []byte {
	t.Helper()
	enc := wirebin.GetEncoder()
	defer wirebin.PutEncoder(enc)
	var out []byte
	out = append(out, enc.AppendMeta(&wire.StreamMeta{
		D: 4, G: 8, Slots: 2, Fragments: len(slots), Strategy: "theorem2",
	})...)
	for i := range slots {
		out = append(out, enc.AppendSlot(&slots[i])...)
	}
	for _, tr := range trailer {
		out = append(out, tr...)
	}
	return out
}

// rawStreamServer serves raw for every POST, flushed in two halves so the
// client sees a real chunked stream, with the binary Content-Type.
func rawStreamServer(t *testing.T, raw []byte) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wirebin.ContentType)
		fl := w.(http.Flusher)
		half := len(raw) / 2
		w.Write(raw[:half])
		fl.Flush()
		w.Write(raw[half:])
		fl.Flush()
	}))
	t.Cleanup(srv.Close)
	return srv
}

func doneFrame(t *testing.T, fragments int) []byte {
	t.Helper()
	enc := wirebin.GetEncoder()
	defer wirebin.PutEncoder(enc)
	return append([]byte(nil), enc.AppendDone(&wire.StreamDone{Slots: 2, Fragments: fragments})...)
}

// TestServiceClientBinaryStream drives a complete binary stream through the
// client and checks slots, done record, and the decoded meta.
func TestServiceClientBinaryStream(t *testing.T) {
	slots := []wire.StreamSlot{
		{Slot: 0, Color: 0, Sends: []popsnet.Send{{Src: 1, DestGroup: 2, Packet: 3}}, Recvs: []popsnet.Recv{{Proc: 4, SrcGroup: 0}}},
		{Slot: 1, Color: -1, Final: true},
	}
	raw := binaryStreamBytes(t, slots, doneFrame(t, 2))
	srv := rawStreamServer(t, raw)
	client := NewServiceClient(srv.URL, nil)

	st, err := client.ExecuteStream(context.Background(), 4, 8, Permutation(VectorReversal(32)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Meta().Fragments != 2 || st.Meta().Strategy != "theorem2" {
		t.Fatalf("meta = %+v", st.Meta())
	}
	for i := 0; ; i++ {
		rec, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			if i != 2 {
				t.Fatalf("stream ended after %d of 2 fragments", i)
			}
			break
		}
		if rec.Slot != i {
			t.Fatalf("fragment %d has slot %d", i, rec.Slot)
		}
		if i == 0 && (len(rec.Sends) != 1 || rec.Sends[0].Packet != 3) {
			t.Fatalf("fragment 0 sends = %+v", rec.Sends)
		}
	}
	if d := st.Done(); d == nil || d.Fragments != 2 {
		t.Fatalf("done = %+v", st.Done())
	}
}

// TestServiceClientTruncatedBinaryStream pins the malformed-stream contract
// on the binary codec: a stream cut mid-frame (or cut before done) surfaces
// a typed error from Next — never a silently short plan.
func TestServiceClientTruncatedBinaryStream(t *testing.T) {
	slots := []wire.StreamSlot{
		{Slot: 0, Color: 0, Sends: []popsnet.Send{{Src: 1, DestGroup: 2, Packet: 3}}, Recvs: []popsnet.Recv{{Proc: 4, SrcGroup: 0}}},
		{Slot: 1, Color: 1, Sends: []popsnet.Send{{Src: 5, DestGroup: 1, Packet: 6}}, Recvs: []popsnet.Recv{{Proc: 7, SrcGroup: 2}}},
	}
	full := binaryStreamBytes(t, slots) // no done frame
	for name, raw := range map[string][]byte{
		"cut mid-frame":   full[:len(full)-3],
		"cut before done": full,
	} {
		srv := rawStreamServer(t, raw)
		client := NewServiceClient(srv.URL, nil)
		st, err := client.ExecuteStream(context.Background(), 4, 8, Permutation(VectorReversal(32)))
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		got := 0
		var streamErr error
		for {
			rec, err := st.Next()
			if err != nil {
				streamErr = err
				break
			}
			if rec == nil {
				t.Fatalf("%s: stream ended cleanly after %d fragments", name, got)
			}
			got++
		}
		if streamErr == nil {
			t.Fatalf("%s: truncated stream produced no error", name)
		}
		if st.Done() != nil {
			t.Fatalf("%s: truncated stream reported done", name)
		}
		// Sticky, like the NDJSON malformed suite.
		if _, err := st.Next(); err == nil {
			t.Fatalf("%s: stream error was not sticky", name)
		}
		st.Close()
	}
}

// TestServiceClientCorruptBinaryFrame pins garbage-between-frames: a frame
// whose announced length or version byte is wrong errors out with the typed
// wirebin corruption verdict.
func TestServiceClientCorruptBinaryFrame(t *testing.T) {
	slots := []wire.StreamSlot{{Slot: 0, Color: -1, Final: true}}
	raw := binaryStreamBytes(t, slots, []byte{0x03, 0x77, 0x77, 0x77}) // bad version frame
	srv := rawStreamServer(t, raw)
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
		t.Fatal("corrupt frame produced no error")
	}
}

// TestServiceClientBinaryErrorFrame pins the in-band failure path on the
// binary codec, mirroring the NDJSON error-record test.
func TestServiceClientBinaryErrorFrame(t *testing.T) {
	enc := wirebin.GetEncoder()
	errFrame := append([]byte(nil), enc.AppendError("planning exploded")...)
	wirebin.PutEncoder(enc)
	slots := []wire.StreamSlot{{Slot: 0, Color: -1, Final: true}}
	srv := rawStreamServer(t, binaryStreamBytes(t, slots, errFrame))
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
		t.Fatalf("error frame surfaced as %v", err)
	}
}

// sentRequest is what a codecServer saw of one request.
type sentRequest struct {
	path, contentType, accept string
	body                      []byte
}

// codecServer is a fake route server that records every request and
// answers /route and /route/stream in the codec the request's Accept names:
// binary frames when it names application/x-pops-bin, JSON/NDJSON
// otherwise. A non-zero refuse makes it a JSON-only server: 406 refuses a
// binary Accept, 415 a binary request body.
func codecServer(t *testing.T, refuse int) (*httptest.Server, func() []sentRequest) {
	t.Helper()
	var mu sync.Mutex
	var sent []sentRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		rec := sentRequest{r.URL.Path, r.Header.Get("Content-Type"), r.Header.Get("Accept"), body}
		mu.Lock()
		sent = append(sent, rec)
		mu.Unlock()
		binary := wirebin.Accepts(rec.accept)
		if refuse == http.StatusNotAcceptable && binary ||
			refuse == http.StatusUnsupportedMediaType && wirebin.IsContentType(rec.contentType) {
			http.Error(w, "binary not spoken here", refuse)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		req, ok := wiretest.DecodeRoute(t, w, r)
		if !ok {
			return
		}
		meta := wire.StreamMeta{D: req.D, G: req.G, Slots: 1}
		done := wire.StreamDone{Slots: 1}
		resp := wire.RouteResponse{D: req.D, G: req.G, Plans: []wire.PlanResult{{Slots: 8}}}
		enc := wirebin.GetEncoder()
		defer wirebin.PutEncoder(enc)
		switch {
		case r.URL.Path == "/route/stream" && binary:
			w.Header().Set("Content-Type", wirebin.ContentType)
			w.Write(enc.AppendMeta(&meta))
			w.Write(enc.AppendDone(&done))
		case r.URL.Path == "/route/stream":
			w.Header().Set("Content-Type", "application/x-ndjson")
			json.NewEncoder(w).Encode(wire.StreamRecord{Type: "meta", Meta: &meta})
			json.NewEncoder(w).Encode(wire.StreamRecord{Type: "done", Done: &done})
		case binary:
			w.Header().Set("Content-Type", wirebin.ContentType)
			w.Write(enc.AppendResponse(&resp))
		default:
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(resp)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, func() []sentRequest {
		mu.Lock()
		defer mu.Unlock()
		return append([]sentRequest(nil), sent...)
	}
}

// codecTestRequest is the request every codec test sends, and its two body
// encodings: the JSON one of the pre-binary client and one FrameRequest.
var codecTestRequest = ServiceRouteRequest{D: 4, G: 8, Pi: VectorReversal(32)}

func codecTestBodies(t *testing.T) (jsonBody, binBody []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&codecTestRequest); err != nil {
		t.Fatal(err)
	}
	enc := wirebin.GetEncoder()
	defer wirebin.PutEncoder(enc)
	return buf.Bytes(), append([]byte(nil), enc.AppendRequest(&codecTestRequest)...)
}

// routeAndStream drives one Execute, one drained ExecuteStream and one more
// Execute of codecTestRequest through client.
func routeAndStream(t *testing.T, client *ServiceClient) {
	t.Helper()
	ctx := context.Background()
	w := Permutation(codecTestRequest.Pi)
	execute := func() {
		t.Helper()
		plan, err := client.Execute(ctx, codecTestRequest.D, codecTestRequest.G, w)
		if err != nil || plan.Slots != 8 {
			t.Fatalf("Execute: plan %+v, %v", plan, err)
		}
	}
	execute()
	st, err := client.ExecuteStream(ctx, codecTestRequest.D, codecTestRequest.G, w)
	if err != nil {
		t.Fatalf("ExecuteStream: %v", err)
	}
	if rec, err := st.Next(); rec != nil || err != nil || st.Done() == nil {
		t.Fatalf("stream: record %+v, err %v, done %+v", rec, err, st.Done())
	}
	st.Close()
	execute()
}

// checkCodecFallback pins the transparent downgrade against a server that
// refuses the binary codec with status: the refused call is replayed within
// the same call with a freshly encoded JSON body and no binary Accept, and
// the downgrade is sticky — binary is offered exactly once, and every later
// call, on /route and /route/stream alike, sends the pre-binary JSON bytes.
func checkCodecFallback(t *testing.T, status int) {
	srv, sent := codecServer(t, status)
	routeAndStream(t, NewServiceClient(srv.URL, nil))
	jsonBody, binBody := codecTestBodies(t)
	reqs := sent()
	if len(reqs) != 4 {
		t.Fatalf("server saw %d requests, want 4 (one refused offer, three calls)", len(reqs))
	}
	if r := reqs[0]; !wirebin.IsContentType(r.contentType) || !wirebin.Accepts(r.accept) || !bytes.Equal(r.body, binBody) {
		t.Fatalf("first request offered Content-Type %q, Accept %q, body %q; want the binary frame", r.contentType, r.accept, r.body)
	}
	for i, r := range reqs[1:] {
		if r.contentType != "application/json" || r.accept != "" || !bytes.Equal(r.body, jsonBody) {
			t.Errorf("request %d after the refusal (%s): Content-Type %q, Accept %q, body %q; want the JSON request",
				i+1, r.path, r.contentType, r.accept, r.body)
		}
	}
}

// TestServiceClientCodecFallbackOn406 is checkCodecFallback against a server
// that refuses the binary Accept.
func TestServiceClientCodecFallbackOn406(t *testing.T) {
	checkCodecFallback(t, http.StatusNotAcceptable)
}

// TestServiceClientCodecFallbackOn415 is checkCodecFallback against a server
// that refuses the binary request body.
func TestServiceClientCodecFallbackOn415(t *testing.T) {
	checkCodecFallback(t, http.StatusUnsupportedMediaType)
}

// TestServiceClientSendsBinaryRequests pins the default request codec:
// CodecAuto and CodecBinary clients send each call as one FrameRequest
// under Content-Type application/x-pops-bin, with an Accept naming binary.
func TestServiceClientSendsBinaryRequests(t *testing.T) {
	_, binBody := codecTestBodies(t)
	for _, codec := range []ServiceCodec{CodecAuto, CodecBinary} {
		srv, sent := codecServer(t, 0)
		routeAndStream(t, NewServiceClient(srv.URL, nil).WithCodec(codec))
		for _, r := range sent() {
			if !wirebin.IsContentType(r.contentType) || !wirebin.Accepts(r.accept) || !bytes.Equal(r.body, binBody) {
				t.Errorf("codec %d %s: Content-Type %q, Accept %q, body %q; want the binary frame",
					codec, r.path, r.contentType, r.accept, r.body)
			}
		}
	}
}

// TestServiceClientCodecJSONSendsNoAccept pins the escape hatch: a CodecJSON
// client's requests are byte-identical to the pre-binary client —
// Content-Type application/json, the json.Encoder bytes of the request, no
// Accept header at all — and CodecBinary refuses a JSON answer.
func TestServiceClientCodecJSONSendsNoAccept(t *testing.T) {
	codecSrv, sent := codecServer(t, 0)
	routeAndStream(t, NewServiceClient(codecSrv.URL, nil).WithCodec(CodecJSON))
	jsonBody, _ := codecTestBodies(t)
	for _, r := range sent() {
		if r.contentType != "application/json" || r.accept != "" || !bytes.Equal(r.body, jsonBody) {
			t.Errorf("CodecJSON %s: Content-Type %q, Accept %q, body %q; want the pre-binary request",
				r.path, r.contentType, r.accept, r.body)
		}
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wire.RouteResponse{Plans: []wire.PlanResult{{Slots: 8}}})
	}))
	t.Cleanup(srv.Close)
	binClient := NewServiceClient(srv.URL, nil).WithCodec(CodecBinary)
	_, err := binClient.Execute(context.Background(), 4, 8, Permutation(VectorReversal(32)))
	if err == nil || !strings.Contains(err.Error(), "want "+wirebin.ContentType) {
		t.Fatalf("CodecBinary accepted a JSON answer: %v", err)
	}
}

// memTransport answers every request in memory with one canned stream body:
// no sockets, so an allocation count sees the client alone.
type memTransport struct {
	contentType string
	body        []byte
}

func (m memTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{"Content-Type": {m.contentType}},
		Body:    io.NopCloser(bytes.NewReader(m.body)),
		Request: r,
	}, nil
}

// TestServiceStreamDrainAllocs pins the client's fragment reuse: a stream
// decodes every fragment into one record it owns, so draining a (16,16)
// 4-relation — 8 whole slots of 256 sends — allocates no more than
// draining its first 4 slots. The stream bytes are the planner's own,
// encoded once and served from memory in both codecs.
func TestServiceStreamDrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the codec's buffers")
	}
	const d, g, h = 16, 16, 4
	ctx := context.Background()
	p, err := NewPlanner(d, g)
	if err != nil {
		t.Fatal(err)
	}
	reqs := randomRelation(d*g, h, rand.New(rand.NewSource(17)))
	ps, err := p.ExecuteStream(ctx, HRelation(reqs))
	if err != nil {
		t.Fatal(err)
	}
	var slots []wire.StreamSlot
	for {
		frag, ok := ps.Next()
		if !ok {
			break
		}
		slots = append(slots, wire.StreamSlot{Slot: frag.Slot, Color: frag.Color, Offset: frag.Offset, Final: frag.Final,
			Sends: slices.Clone(frag.Sends), Recvs: slices.Clone(frag.Recvs)})
	}
	if err := ps.Err(); err != nil || len(slots) != 2*h {
		t.Fatalf("planned %d fragments (err %v), want %d", len(slots), err, 2*h)
	}
	body := func(binary bool, slots []wire.StreamSlot) []byte {
		meta := wire.StreamMeta{D: d, G: g, Slots: len(slots), Fragments: len(slots), Strategy: StrategyHRelation}
		done := wire.StreamDone{Slots: len(slots), Fragments: len(slots)}
		if binary {
			enc := wirebin.GetEncoder()
			defer wirebin.PutEncoder(enc)
			out := append([]byte(nil), enc.AppendMeta(&meta)...)
			for i := range slots {
				out = append(out, enc.AppendSlot(&slots[i])...)
			}
			return append(out, enc.AppendDone(&done)...)
		}
		var buf bytes.Buffer
		jenc := json.NewEncoder(&buf)
		jenc.Encode(wire.StreamRecord{Type: "meta", Meta: &meta})
		for i := range slots {
			jenc.Encode(wire.StreamRecord{Type: "slot", Slot: &slots[i]})
		}
		jenc.Encode(wire.StreamRecord{Type: "done", Done: &done})
		return buf.Bytes()
	}
	drainAllocs := func(codec ServiceCodec, contentType string, raw []byte, want []wire.StreamSlot) float64 {
		client := NewServiceClient("http://mem", &http.Client{Transport: memTransport{contentType, raw}}).WithCodec(codec)
		drain := func() {
			st, err := client.ExecuteStream(ctx, d, g, HRelation(reqs))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for i := 0; ; i++ {
				rec, err := st.Next()
				if err != nil {
					t.Fatal(err)
				}
				if rec == nil {
					if i != len(want) {
						t.Fatalf("codec %d: stream ended after %d of %d fragments", codec, i, len(want))
					}
					return
				}
				if rec.Slot != want[i].Slot || !slices.Equal(rec.Sends, want[i].Sends) || !slices.Equal(rec.Recvs, want[i].Recvs) {
					t.Fatalf("codec %d: fragment %d decoded as slot %d, want slot %d", codec, i, rec.Slot, want[i].Slot)
				}
			}
		}
		drain() // warm the pools
		return testing.AllocsPerRun(20, drain)
	}
	for _, c := range []struct {
		name        string
		codec       ServiceCodec
		contentType string
	}{{"binary", CodecBinary, wirebin.ContentType}, {"ndjson", CodecJSON, "application/x-ndjson"}} {
		binary := c.codec == CodecBinary
		all := drainAllocs(c.codec, c.contentType, body(binary, slots), slots)
		half := drainAllocs(c.codec, c.contentType, body(binary, slots[:h]), slots[:h])
		// A JSON string field is a fresh string per record: NDJSON pays one
		// allocation per record for its "type", nothing per send.
		perSlot := 0.0
		if !binary {
			perSlot = 1
		}
		t.Logf("%s: draining %d slots allocates %.0f, %d slots %.0f", c.name, 2*h, all, h, half)
		if all > half+perSlot*h {
			t.Errorf("%s: draining %d slots allocates %.0f, %d slots %.0f: fragments are not reused",
				c.name, 2*h, all, h, half)
		}
	}
}

// TestServiceStreamNDJSONAbsentFieldsReset pins the NDJSON path's reset of
// the reused record: a send or recv object that omits a field decodes it
// as 0, as a fresh record would, not as the field an earlier fragment left
// in the same element of the reused slices.
func TestServiceStreamNDJSONAbsentFieldsReset(t *testing.T) {
	body := `{"type":"meta","meta":{"d":2,"g":2,"slots":2,"fragments":2}}
{"type":"slot","slot":{"slot":0,"color":0,"offset":0,"final":true,"sends":[{"Src":1,"DestGroup":1,"Packet":7},{"Src":2,"DestGroup":0,"Packet":9}],"recvs":[{"Proc":3,"SrcGroup":1}]}}
{"type":"slot","slot":{"slot":1,"color":0,"offset":0,"final":true,"sends":[{"Src":3,"DestGroup":1},{"Src":0}],"recvs":[{"Proc":2}]}}
{"type":"done","done":{"slots":2,"fragments":2}}
`
	client := NewServiceClient("http://mem", &http.Client{Transport: memTransport{"application/x-ndjson", []byte(body)}}).WithCodec(CodecJSON)
	st, err := client.ExecuteStream(context.Background(), 2, 2, Permutation([]int{0, 1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Next()
	if err != nil || rec == nil {
		t.Fatalf("second fragment: %v, %v", rec, err)
	}
	wantSends := []popsnet.Send{{Src: 3, DestGroup: 1}, {Src: 0}}
	wantRecvs := []popsnet.Recv{{Proc: 2}}
	if rec.Slot != 1 || !slices.Equal(rec.Sends, wantSends) || !slices.Equal(rec.Recvs, wantRecvs) {
		t.Errorf("second fragment decoded as slot %d sends %v recvs %v, want slot 1 sends %v recvs %v",
			rec.Slot, rec.Sends, rec.Recvs, wantSends, wantRecvs)
	}
}
