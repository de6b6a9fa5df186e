package pops

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"pops/internal/wire"
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
