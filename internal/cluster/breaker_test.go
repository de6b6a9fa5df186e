package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pops"
	"pops/internal/wire"
)

// routeOK answers every /route with one trivial plan and /healthz with ok.
func routeOK() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("/route", func(w http.ResponseWriter, r *http.Request) {
		var req wire.RouteRequest
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode(wire.RouteResponse{D: req.D, G: req.G, Plans: []wire.PlanResult{{Slots: 1}}})
	})
	return mux
}

// shed429 answers /route with the overload verdict and /healthz with ok —
// a node that is alive and explicitly protecting itself.
func shed429(sheds *atomic.Int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("/route", func(w http.ResponseWriter, r *http.Request) {
		sheds.Add(1)
		w.Header().Set("Retry-After", "1")
		w.Header().Set(wire.HeaderRetryAfterMs, "20")
		w.Header().Set(wire.HeaderOverloadQueue, "admission")
		http.Error(w, "pops: overloaded", http.StatusTooManyRequests)
	})
	return mux
}

// TestProxyOverloadSpillsOnce pins 429-aware failover: a shedding backend is
// not ejected — the request spills to the next ring owner exactly once and
// succeeds there, with the shed charged to the backend that refused it.
func TestProxyOverloadSpillsOnce(t *testing.T) {
	var shedCount atomic.Int64
	shedder := httptest.NewServer(shed429(&shedCount))
	t.Cleanup(shedder.Close)
	ok := httptest.NewServer(routeOK())
	t.Cleanup(ok.Close)

	p, err := New(Config{Backends: []string{shedder.URL, ok.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.jitter = func(d time.Duration) time.Duration {
		t.Fatalf("overload spill paused %v; 429 failover must not back off", d)
		return 0
	}

	// Drive enough distinct workloads that some are owned by the shedder.
	// Ring placement hashes the backends' ephemeral URLs, so a handful of
	// keys can all land on the healthy node; 64 seeded random permutations
	// make that vanishingly unlikely.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		pi := pops.RandomPermutation(8, rng)
		if _, err := p.Execute(context.Background(), 2, 4, pops.Permutation(pi)); err != nil {
			t.Fatalf("Execute %d: %v (want spill to the healthy sibling)", i, err)
		}
	}
	if shedCount.Load() == 0 {
		t.Fatal("no workload ever landed on the shedding backend; test lost its subject")
	}
	for _, bs := range p.Backends() {
		if bs.ID == shedder.URL {
			if bs.Sheds == 0 {
				t.Fatal("shedding backend has no sheds recorded")
			}
			if !bs.Healthy {
				t.Fatal("shedding backend was ejected; 429 is not a connection error")
			}
			if bs.BreakerState != "closed" {
				t.Fatalf("shedding backend breaker %q, want closed", bs.BreakerState)
			}
		}
	}
}

// jsonBody marshals v for an HTTP post.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// TestProxyAllSheddingRelays429 drives a fleet where every owner sheds: the
// typed verdict must come back to the caller (and over HTTP as 429 with
// Retry-After), not a 502.
func TestProxyAllSheddingRelays429(t *testing.T) {
	var a, b atomic.Int64
	s1 := httptest.NewServer(shed429(&a))
	t.Cleanup(s1.Close)
	s2 := httptest.NewServer(shed429(&b))
	t.Cleanup(s2.Close)

	p, err := New(Config{Backends: []string{s1.URL, s2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	_, err = p.Execute(context.Background(), 2, 4, pops.Permutation(pops.IdentityPermutation(8)))
	var oe *pops.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("Execute error %v, want *pops.OverloadError", err)
	}
	if oe.RetryAfter != 20*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want the backend's 20ms hint", oe.RetryAfter)
	}

	// The HTTP surface relays the verdict with headers intact.
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)
	resp, err := http.Post(front.URL+"/route", "application/json",
		jsonBody(t, &wire.RouteRequest{D: 2, G: 4, Pi: pops.IdentityPermutation(8)}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("proxy answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 relay lost the Retry-After header")
	}
}

// TestProxyConcurrencyCapSheds pins the per-backend in-flight gate: with
// MaxPerBackend=1 and the only backend busy, a second request sheds with a
// "backend" overload verdict instead of queueing behind the first.
func TestProxyConcurrencyCapSheds(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("/route", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		json.NewEncoder(w).Encode(wire.RouteResponse{D: 2, G: 4, Plans: []wire.PlanResult{{Slots: 1}}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) })

	p, err := New(Config{Backends: []string{srv.URL}, MaxPerBackend: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	go p.Execute(context.Background(), 2, 4, pops.Permutation(pops.IdentityPermutation(8)))
	<-entered // the slow request holds the backend's one slot

	_, err = p.Execute(context.Background(), 2, 4, pops.Permutation(pops.IdentityPermutation(8)))
	var oe *pops.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("second Execute error %v, want *pops.OverloadError", err)
	}
	if oe.Queue != "backend" {
		t.Fatalf("overload queue %q, want backend", oe.Queue)
	}
}

// TestBreakerTripsAndRecovers walks the full breaker cycle against a node
// that flaps: /healthz keeps answering ok while /route drops connections, so
// health ejection alone re-admits it every probe round — only the
// consecutive-error breaker holds it out. Once the node recovers, the
// cooldown plus a healthz probe half-opens the breaker and the next request
// closes it.
func TestBreakerTripsAndRecovers(t *testing.T) {
	var broken atomic.Bool
	broken.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("/route", func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer cannot hijack")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close() // drop the connection mid-request: a conn error, not a 5xx
			}
			return
		}
		var req wire.RouteRequest
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode(wire.RouteResponse{D: req.D, G: req.G, Plans: []wire.PlanResult{{Slots: 1}}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	p, err := New(Config{
		Backends:        []string{srv.URL},
		Retries:         -1, // no failover: every conn error charges this backend once
		HealthInterval:  5 * time.Millisecond,
		BreakerFailures: 2,
		BreakerCooldown: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	b := p.backends[0]

	for i := 0; i < 2; i++ {
		if _, err := p.Execute(context.Background(), 2, 4, pops.Permutation(pops.IdentityPermutation(8))); err == nil {
			t.Fatalf("Execute %d succeeded against a connection-dropping backend", i)
		}
		// The health loop re-admits the flapping node between failures; wait
		// for re-admission so the next attempt reaches the backend instead of
		// shedding on "no admittable owners".
		waitFor(t, func() bool { return b.healthy.Load() || b.brState.Load() == brOpen })
	}
	if got := b.brState.Load(); got != brOpen {
		t.Fatalf("breaker state %s after %d consecutive errors, want open", breakerStateName(got), 2)
	}
	if got := b.brOpens.Load(); got != 1 {
		t.Fatalf("breaker opens = %d, want 1", got)
	}

	// While open, the node is excluded and the proxy sheds: a request must
	// come back as an overload verdict without touching the backend.
	_, err = p.Execute(context.Background(), 2, 4, pops.Permutation(pops.IdentityPermutation(8)))
	var oe *pops.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("Execute with the breaker open: %v, want *pops.OverloadError", err)
	}

	// Recovery: the node starts serving again; cooldown passes; a healthz
	// probe half-opens the breaker; the next request is the probe and closes
	// it.
	broken.Store(false)
	waitFor(t, func() bool { return b.brState.Load() == brHalfOpen })
	if _, err := p.Execute(context.Background(), 2, 4, pops.Permutation(pops.IdentityPermutation(8))); err != nil {
		t.Fatalf("probe request after recovery: %v", err)
	}
	if got := b.brState.Load(); got != brClosed {
		t.Fatalf("breaker state %s after a successful probe, want closed", breakerStateName(got))
	}
}

// TestBreakerLatencyTrip pins the slow-node trip: a backend that answers
// successfully but slower than BreakerLatency opens its breaker once the
// EWMA has enough samples.
func TestBreakerLatencyTrip(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok\n"))
			return
		}
		time.Sleep(5 * time.Millisecond)
		var req wire.RouteRequest
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode(wire.RouteResponse{D: req.D, G: req.G, Plans: []wire.PlanResult{{Slots: 1}}})
	}))
	t.Cleanup(slow.Close)

	p, err := New(Config{
		Backends:       []string{slow.URL},
		BreakerLatency: time.Millisecond, // every 5ms answer breaches it
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	b := p.backends[0]

	for i := 0; i < brMinSamples+1 && b.brState.Load() == brClosed; i++ {
		p.Execute(context.Background(), 2, 4, pops.Permutation(pops.IdentityPermutation(8)))
	}
	if got := b.brState.Load(); got != brOpen {
		t.Fatalf("breaker state %s after sustained slow answers, want open", breakerStateName(got))
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
