package pops

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"pops/internal/wire"
	"pops/internal/wire/wiretest"
)

// shedThenServe answers the first n /route posts with a 429 overload
// verdict carrying retryAfter, then serves real plans.
func shedThenServe(t *testing.T, n int, retryAfter time.Duration) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			w.Header().Set("Retry-After", "1")
			w.Header().Set(wire.HeaderRetryAfterMs, strconv.FormatInt(retryAfter.Milliseconds(), 10))
			w.Header().Set(wire.HeaderOverloadQueue, "admission")
			w.Header().Set(wire.HeaderTenant, "bronze")
			http.Error(w, "pops: overloaded", http.StatusTooManyRequests)
			return
		}
		req, ok := wiretest.DecodeRoute(t, w, r)
		if !ok {
			return
		}
		resp := wire.RouteResponse{D: req.D, G: req.G, Plans: []wire.PlanResult{{Slots: 1}}}
		json.NewEncoder(w).Encode(&resp)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// TestClientRetrySchedule pins the full backoff schedule: the pause before
// retry k is BaseBackoff<<k, raised to the server's Retry-After hint, capped
// at MaxBackoff — with jitter and sleeping injected so nothing is timed.
func TestClientRetrySchedule(t *testing.T) {
	srv, calls := shedThenServe(t, 4, 40*time.Millisecond)
	var slept []time.Duration
	c := NewServiceClient(srv.URL, nil).WithRetry(RetryPolicy{
		MaxRetries:  4,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  60 * time.Millisecond,
	})
	c.jitter = func(d time.Duration) time.Duration { return d } // identity: pin the schedule
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}

	if _, err := c.Execute(context.Background(), 4, 4, Permutation([]int{0, 1, 2, 3})); err != nil {
		t.Fatalf("Route after retries: %v", err)
	}
	if got := calls.Load(); got != 5 {
		t.Fatalf("server saw %d calls, want 5 (1 + 4 retries)", got)
	}
	// Attempt 0: base 10ms raised to the 40ms hint. Attempt 1: 20ms → 40ms.
	// Attempt 2: 40ms. Attempt 3: 80ms capped at 60ms.
	want := []time.Duration{40 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("pause %d = %v, want %v (schedule %v)", i, slept[i], want[i], slept)
		}
	}
}

// TestClientRetryExhaustion asserts the typed verdict surfaces once retries
// run out, with the server's pacing hint intact for the caller.
func TestClientRetryExhaustion(t *testing.T) {
	srv, calls := shedThenServe(t, 100, 25*time.Millisecond)
	c := NewServiceClient(srv.URL, nil).WithRetry(RetryPolicy{MaxRetries: 2})
	c.jitter = func(d time.Duration) time.Duration { return d }
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }

	_, err := c.Execute(context.Background(), 4, 4, Permutation([]int{0, 1, 2, 3}))
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v, want *OverloadError", err)
	}
	if oe.RetryAfter != 25*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 25ms", oe.RetryAfter)
	}
	if oe.Tenant != "bronze" || oe.Queue != "admission" {
		t.Fatalf("verdict = %+v, want tenant bronze / queue admission", oe)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 + 2 retries)", got)
	}
}

// TestClientRetryRespectsDeadline: a pause that would outlive the request
// deadline is never taken — the overload verdict returns immediately, and a
// request whose context is already done is not replayed at all.
func TestClientRetryRespectsDeadline(t *testing.T) {
	srv, calls := shedThenServe(t, 100, 10*time.Second)
	c := NewServiceClient(srv.URL, nil).WithRetry(RetryPolicy{MaxRetries: 5, MaxBackoff: time.Minute})
	c.jitter = func(d time.Duration) time.Duration { return d }
	c.sleep = func(ctx context.Context, d time.Duration) error {
		t.Fatalf("slept %v past the request deadline", d)
		return nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := c.Execute(ctx, 4, 4, Permutation([]int{0, 1, 2, 3}))
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v, want *OverloadError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry fits a 1s deadline against a 10s hint)", got)
	}
}

// TestClientNoRetryOnDeterministicError: a 400 is not an overload and must
// not burn retries.
func TestClientNoRetryOnDeterministicError(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "pops: d must be positive", http.StatusBadRequest)
	}))
	t.Cleanup(srv.Close)
	c := NewServiceClient(srv.URL, nil).WithRetry(RetryPolicy{MaxRetries: 5})
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }

	if _, err := c.Execute(context.Background(), 0, 4, Permutation(nil)); err == nil {
		t.Fatal("want error from 400")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (deterministic errors never retry)", got)
	}
}

// TestClientStreamRetriesAtAdmissionOnly: a shed stream open (429 before
// meta) retries; the eventually-opened stream then plays out normally.
func TestClientStreamRetriesAtAdmissionOnly(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set(wire.HeaderRetryAfterMs, "5")
			w.Header().Set(wire.HeaderOverloadQueue, "stream")
			http.Error(w, "pops: overloaded", http.StatusTooManyRequests)
			return
		}
		enc := json.NewEncoder(w)
		enc.Encode(wire.StreamRecord{Type: "meta", Meta: &wire.StreamMeta{D: 4, G: 4, Slots: 1}})
		enc.Encode(wire.StreamRecord{Type: "slot", Slot: &wire.StreamSlot{Slot: 0}})
		enc.Encode(wire.StreamRecord{Type: "done", Done: &wire.StreamDone{Slots: 1}})
	}))
	t.Cleanup(srv.Close)
	c := NewServiceClient(srv.URL, nil).WithRetry(RetryPolicy{MaxRetries: 2})
	c.jitter = func(d time.Duration) time.Duration { return d }
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }

	st, err := c.ExecuteStream(context.Background(), 4, 4, Permutation([]int{0, 1, 2, 3}))
	if err != nil {
		t.Fatalf("ExecuteStream after shed: %v", err)
	}
	defer st.Close()
	if st.Meta().Slots != 1 {
		t.Fatalf("meta slots = %d, want 1", st.Meta().Slots)
	}
	for {
		slot, err := st.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if slot == nil {
			break
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
}

// TestClientSendsDeadlineAndTenantHeaders pins the propagation headers the
// serving side sheds on.
func TestClientSendsDeadlineAndTenantHeaders(t *testing.T) {
	var gotDeadline, gotTenant atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotDeadline.Store(r.Header.Get(wire.HeaderDeadline))
		gotTenant.Store(r.Header.Get(wire.HeaderTenant))
		json.NewEncoder(w).Encode(wire.RouteResponse{D: 4, G: 4, Plans: []wire.PlanResult{{Slots: 1}}})
	}))
	t.Cleanup(srv.Close)
	c := NewServiceClient(srv.URL, nil)

	deadline := time.Now().Add(30 * time.Second)
	ctx, cancel := context.WithDeadline(ContextWithTenant(context.Background(), "gold"), deadline)
	defer cancel()
	if _, err := c.Execute(ctx, 4, 4, Permutation([]int{0, 1, 2, 3})); err != nil {
		t.Fatalf("Route: %v", err)
	}
	if got := gotTenant.Load(); got != "gold" {
		t.Fatalf("X-Tenant = %q, want gold", got)
	}
	hdr, _ := gotDeadline.Load().(string)
	parsed, err := wire.ParseDeadline(hdr)
	if err != nil {
		t.Fatalf("X-Deadline %q: %v", hdr, err)
	}
	if d := parsed.Sub(deadline); d > time.Millisecond || d < -time.Millisecond {
		t.Fatalf("X-Deadline decoded to %v, want %v", parsed, deadline)
	}
}
