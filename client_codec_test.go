package pops

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"pops/internal/popsnet"
	"pops/internal/wire"
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

// TestServiceClientCodecFallbackOn406 pins the transparent downgrade: a
// server that 406es the binary offer is retried as plain JSON within the
// same call, and the downgrade is sticky — later calls never offer binary
// again.
func TestServiceClientCodecFallbackOn406(t *testing.T) {
	var rejected, jsonCalls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.Header.Get("Accept"), "x-pops-bin") {
			rejected.Add(1)
			http.Error(w, "binary not spoken here", http.StatusNotAcceptable)
			return
		}
		jsonCalls.Add(1)
		var req wire.RouteRequest
		json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wire.RouteResponse{D: req.D, G: req.G, Plans: []wire.PlanResult{{Slots: 8}}})
	}))
	t.Cleanup(srv.Close)
	client := NewServiceClient(srv.URL, nil)

	for i := 0; i < 3; i++ {
		plan, err := client.Execute(context.Background(), 4, 8, Permutation(VectorReversal(32)))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if plan.Slots != 8 {
			t.Fatalf("call %d: plan %+v", i, plan)
		}
	}
	if got := rejected.Load(); got != 1 {
		t.Fatalf("binary offered %d times, want exactly 1 (sticky downgrade)", got)
	}
	if got := jsonCalls.Load(); got != 3 {
		t.Fatalf("JSON served %d calls, want 3", got)
	}
}

// TestServiceClientCodecJSONSendsNoAccept pins the escape hatch: a CodecJSON
// client's requests carry no Accept header at all — byte-identical to the
// pre-binary client — and CodecBinary refuses a JSON answer.
func TestServiceClientCodecJSONSendsNoAccept(t *testing.T) {
	var sawAccept atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Accept") != "" {
			sawAccept.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wire.RouteResponse{Plans: []wire.PlanResult{{Slots: 8}}})
	}))
	t.Cleanup(srv.Close)

	jsonClient := NewServiceClient(srv.URL, nil).WithCodec(CodecJSON)
	if _, err := jsonClient.Execute(context.Background(), 4, 8, Permutation(VectorReversal(32))); err != nil {
		t.Fatal(err)
	}
	if sawAccept.Load() != 0 {
		t.Fatal("CodecJSON sent an Accept header")
	}

	binClient := NewServiceClient(srv.URL, nil).WithCodec(CodecBinary)
	_, err := binClient.Execute(context.Background(), 4, 8, Permutation(VectorReversal(32)))
	if err == nil || !strings.Contains(err.Error(), "want "+wirebin.ContentType) {
		t.Fatalf("CodecBinary accepted a JSON answer: %v", err)
	}
}
