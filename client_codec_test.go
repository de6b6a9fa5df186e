package pops

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
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
