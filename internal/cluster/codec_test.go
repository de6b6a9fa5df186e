package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pops"
	"pops/internal/service"
	"pops/internal/wire"
	"pops/internal/wirebin"
)

// TestProxyBinaryStreamEndToEnd drives the negotiated binary codec through a
// real fleet: a binary-framed request body places correctly, /route answers a
// binary response frame, /route/stream relays the backend's binary frames,
// and the fleet-merged GET /stats carries the backends' per-codec ledger.
func TestProxyBinaryStreamEndToEnd(t *testing.T) {
	p, _, _ := fleet(t, 2, service.Config{BatchDelay: 200 * time.Microsecond}, Config{})
	front, _ := serveFront(t, p)
	ctx := context.Background()
	const d, g = 4, 8

	wreq := wire.RouteRequest{D: d, G: g, Pi: pops.VectorReversal(d * g)}
	enc := wirebin.GetEncoder()
	binBody := append([]byte(nil), enc.AppendRequest(&wreq)...)
	wirebin.PutEncoder(enc)

	// Unary: binary request body in, binary response frame out.
	req, err := http.NewRequest(http.MethodPost, front.URL+"/route", bytes.NewReader(binBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wirebin.ContentType)
	req.Header.Set("Accept", wirebin.ContentType)
	resp, err := front.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("binary /route status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); !wirebin.IsContentType(ct) {
		t.Fatalf("binary /route answered Content-Type %q", ct)
	}
	typ, payload, err := wirebin.NewDecoder(resp.Body).ReadFrame()
	if err != nil || typ != wirebin.FrameResponse {
		t.Fatalf("ReadFrame: typ=%d err=%v", typ, err)
	}
	var rr wire.RouteResponse
	if err := wirebin.DecodeResponse(payload, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Plans) != 1 || rr.Plans[0].Slots != pops.OptimalSlots(d, g) {
		t.Fatalf("binary response plans: %+v", rr.Plans)
	}

	// Stream: JSON body, binary Accept; the proxy must relay the backend's
	// frames intact — meta first, done last, every fragment in between.
	body, err := json.Marshal(wreq)
	if err != nil {
		t.Fatal(err)
	}
	sreq, err := http.NewRequest(http.MethodPost, front.URL+"/route/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sreq.Header.Set("Content-Type", "application/json")
	sreq.Header.Set("Accept", wirebin.ContentType)
	sresp, err := front.Client().Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); !wirebin.IsContentType(ct) {
		t.Fatalf("binary stream Content-Type = %q", ct)
	}
	dec := wirebin.NewDecoder(sresp.Body)
	var meta wire.StreamMeta
	slots := 0
	sawDone := false
	for {
		typ, payload, err := dec.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		switch typ {
		case wirebin.FrameMeta:
			if err := wirebin.DecodeMeta(payload, &meta); err != nil {
				t.Fatal(err)
			}
		case wirebin.FrameSlot:
			slots++
		case wirebin.FrameDone:
			sawDone = true
		default:
			t.Fatalf("unexpected frame type %d", typ)
		}
	}
	if !sawDone || meta.Fragments == 0 || slots != meta.Fragments {
		t.Fatalf("relayed %d slot frames, meta promised %d (done=%v)", slots, meta.Fragments, sawDone)
	}

	// The fleet-merged stats carry the backends' binary ledger.
	stats, err := pops.NewServiceClient(front.URL, nil).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var bin *wire.WireCodecStats
	for i := range stats.WireCodecs {
		if stats.WireCodecs[i].Codec == wire.CodecBinary {
			bin = &stats.WireCodecs[i]
		}
	}
	if bin == nil || bin.Requests == 0 || bin.Streams == 0 || bin.StreamedBytes == 0 {
		t.Fatalf("fleet wire_codecs missing binary traffic: %+v", stats.WireCodecs)
	}
}

// TestProxyBinaryStreamReassemblesSplitFrames is the chunk-boundary core of
// the re-framing contract: a backend that flushes its binary stream one byte
// at a time forces every frame to span many HTTP chunks, and the proxy must
// reassemble each frame before relaying it. The backend then hangs up
// mid-frame; the partial frame must be dropped and the failure surfaced as an
// in-band binary error frame — never relayed garbage.
func TestProxyBinaryStreamReassemblesSplitFrames(t *testing.T) {
	enc := wirebin.GetEncoder()
	var whole []byte
	whole = append(whole, enc.AppendMeta(&wire.StreamMeta{D: 4, G: 8, Slots: 2, Fragments: 2, Strategy: "theorem2"})...)
	whole = append(whole, enc.AppendSlot(&wire.StreamSlot{Slot: 0, Color: 0})...)
	whole = append(whole, enc.AppendSlot(&wire.StreamSlot{Slot: 1, Color: -1, Final: true})...)
	partial := append([]byte(nil), enc.AppendSlot(&wire.StreamSlot{Slot: 2, Color: 1})...)
	wirebin.PutEncoder(enc)

	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Content-Type", wirebin.ContentType)
		fl := w.(http.Flusher)
		for _, b := range whole {
			_, _ = w.Write([]byte{b})
			fl.Flush()
		}
		_, _ = w.Write(partial[:len(partial)/2])
		fl.Flush()
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close() // hang up mid-frame
		}
	}))
	t.Cleanup(fake.Close)

	p, err := New(Config{Backends: []string{fake.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	_, client := serveFront(t, p)
	st, err := client.ExecuteStream(context.Background(), 4, 8, pops.Permutation(pops.VectorReversal(32)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Meta().Fragments != 2 || st.Meta().Strategy != "theorem2" {
		t.Fatalf("meta = %+v", st.Meta())
	}
	for i := 0; i < 2; i++ {
		rec, err := st.Next()
		if err != nil || rec == nil {
			t.Fatalf("fragment %d: %v %v", i, rec, err)
		}
		if rec.Slot != i {
			t.Fatalf("fragment %d has slot %d", i, rec.Slot)
		}
	}
	_, err = st.Next()
	if err == nil {
		t.Fatal("backend hang-up mid-frame did not surface an error")
	}
	if !strings.Contains(err.Error(), "cluster: backend stream") {
		t.Fatalf("mid-frame failure error = %v, want an in-band cluster error frame", err)
	}
}

// TestRequestFramingRule pins the one request-framing rule both front doors
// share (wirebin.DecodeRequestBody): a body is exactly one request — JSON
// may trail whitespace and nothing else, a binary body is one FrameRequest
// and nothing more — so a node and the proxy in front of it give every body
// the same status, each 400 under its own error prefix.
func TestRequestFramingRule(t *testing.T) {
	p, servers, _ := fleet(t, 1, service.Config{}, Config{})
	front, _ := serveFront(t, p)
	req := wire.RouteRequest{D: 2, G: 2, Pi: []int{1, 0, 3, 2}}
	js, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	enc := wirebin.GetEncoder()
	frame := append([]byte(nil), enc.AppendRequest(&req)...)
	wirebin.PutEncoder(enc)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name, contentType string
		body              []byte
		want              int
	}{
		{"json", "application/json", js, http.StatusOK},
		{"json trailing whitespace", "application/json", cat(js, []byte(" \r\n\t")), http.StatusOK},
		{"json twice", "application/json", cat(js, js), http.StatusBadRequest},
		{"json trailing garbage", "application/json", cat(js, []byte("x")), http.StatusBadRequest},
		{"json trailing bracket", "application/json", cat(js, []byte("]")), http.StatusBadRequest},
		{"frame", wirebin.ContentType, frame, http.StatusOK},
		{"frame twice", wirebin.ContentType, cat(frame, frame), http.StatusBadRequest},
		{"frame trailing byte", wirebin.ContentType, cat(frame, []byte{0}), http.StatusBadRequest},
		{"frame truncated", wirebin.ContentType, frame[:len(frame)-1], http.StatusBadRequest},
	}
	doors := []struct{ url, prefix string }{{servers[0].URL, "service: decoding request: "}, {front.URL, "cluster: decoding request: "}}
	for _, c := range cases {
		for _, door := range doors {
			for _, path := range []string{"/route", "/route/stream"} {
				resp, err := front.Client().Post(door.url+path, c.contentType, bytes.NewReader(c.body))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != c.want {
					t.Errorf("%s to %s%s: status %d (%s), want %d", c.name, door.url, path, resp.StatusCode, body, c.want)
				} else if c.want != http.StatusOK && !strings.HasPrefix(string(body), door.prefix) {
					t.Errorf("%s to %s%s: 400 body %q lacks the %q prefix", c.name, door.url, path, body, door.prefix)
				}
			}
		}
	}
}
