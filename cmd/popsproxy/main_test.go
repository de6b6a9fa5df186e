package main

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pops"
	"pops/internal/service"
)

// testWriter routes the proxy's stdout lines into the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// startBackends boots n in-process popsserved backends (real service
// handlers over real HTTP) and returns their servers and URLs.
func startBackends(t *testing.T, n int) ([]*httptest.Server, []string) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{Name: fmt.Sprintf("node-%d", i), BatchDelay: 200 * time.Microsecond})
		srv := httptest.NewServer(svc.Handler())
		servers[i], urls[i] = srv, srv.URL
		t.Cleanup(srv.Close)
		t.Cleanup(svc.Close)
	}
	return servers, urls
}

// startProxy boots popsproxy via its run entry point on an ephemeral port.
func startProxy(t *testing.T, args ...string) (net.Addr, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), testWriter{t}, ready)
	}()
	select {
	case addr := <-ready:
		return addr, cancel, done
	case err := <-done:
		t.Fatalf("proxy exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("proxy never became ready")
	}
	return nil, nil, nil
}

// TestClusterSmoke is the end-to-end smoke `make cluster-smoke` runs: boot
// three in-process popsserved backends and a popsproxy front door, drive a
// permutation trace through the unchanged single-node client, kill one
// backend mid-trace, and assert (a) every request still succeeds — the dead
// node is ejected and its keys fail over to the next ring owner — and
// (b) a replayed permutation is answered from the owning node's fingerprint
// plan cache, proving shape-affine placement survived the membership change.
func TestClusterSmoke(t *testing.T) {
	servers, urls := startBackends(t, 3)
	addr, cancel, done := startProxy(t,
		"-backends", strings.Join(urls, ","),
		"-health-interval", "20ms",
		"-retry-backoff", "1ms",
	)

	client := pops.NewServiceClient("http://"+addr.String(), nil)
	ctx := context.Background()
	if err := client.Healthz(ctx); err != nil {
		t.Fatal(err)
	}

	const d, g = 4, 8
	n := d * g
	trace := make([][]int, 24)
	for i := range trace {
		pi := make([]int, n)
		for j := range pi {
			pi[j] = (j + i + 1) % n
		}
		trace[i] = pi
	}

	// First half of the trace with the full fleet.
	for i := 0; i < len(trace)/2; i++ {
		plan, err := client.Execute(ctx, d, g, pops.Permutation(trace[i]))
		if err != nil {
			t.Fatalf("request %d failed with the full fleet: %v", i, err)
		}
		if plan.Slots != pops.OptimalSlots(d, g) {
			t.Fatalf("request %d: slots = %d, want %d", i, plan.Slots, pops.OptimalSlots(d, g))
		}
	}

	// Kill one backend mid-trace. In-flight and subsequent requests owned by
	// the dead node must fail over; nothing may surface to the client.
	servers[2].CloseClientConnections()
	servers[2].Close()

	// Zero failed requests after ejection: the full trace again. Keys owned
	// by the dead node move to their next ring owner and are re-planned
	// there; keys of the survivors stay put.
	for i, pi := range trace {
		if _, err := client.Execute(ctx, d, g, pops.Permutation(pi)); err != nil {
			t.Fatalf("request %d failed after killing a backend: %v", i, err)
		}
	}

	// Affinity after the membership change: every permutation now has a live
	// owner that has planned it, so a full replay must be answered entirely
	// from the owning nodes' fingerprint plan caches.
	hits := 0
	for i, pi := range trace {
		plan, err := client.Execute(ctx, d, g, pops.Permutation(pi))
		if err != nil {
			t.Fatalf("replay %d failed: %v", i, err)
		}
		if plan.Cached {
			hits++
		}
	}
	if hits != len(trace) {
		t.Fatalf("only %d of %d replays hit the owning node's plan cache", hits, len(trace))
	}

	// The aggregated stats must report the dead node unhealthy and attribute
	// traffic to the survivors.
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Server != "popsproxy" || len(stats.Backends) != 3 {
		t.Fatalf("stats = server %q with %d backends, want popsproxy with 3", stats.Server, len(stats.Backends))
	}
	if stats.Backends[2].Healthy {
		t.Fatal("killed backend still reported healthy")
	}
	if stats.CacheHits == 0 {
		t.Fatal("aggregated stats report no cache hits despite the replayed trace")
	}

	// Graceful drain must complete promptly.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("proxy did not drain within 15s")
	}
}

// TestClusterSmokeStream streams through the proxy and replays the stream,
// asserting the replay is served from the owning node's cache.
func TestClusterSmokeStream(t *testing.T) {
	_, urls := startBackends(t, 3)
	addr, cancel, done := startProxy(t, "-backends", strings.Join(urls, ","))
	client := pops.NewServiceClient("http://"+addr.String(), nil)
	ctx := context.Background()

	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)
	for attempt := 1; attempt <= 2; attempt++ {
		st, err := client.ExecuteStream(ctx, d, g, pops.Permutation(pi))
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for {
			rec, err := st.Next()
			if err != nil {
				t.Fatalf("attempt %d: %v", attempt, err)
			}
			if rec == nil {
				break
			}
			got++
		}
		if got != st.Meta().Fragments {
			t.Fatalf("attempt %d: %d fragments, meta promised %d", attempt, got, st.Meta().Fragments)
		}
		if attempt == 2 && !st.Meta().Cached {
			t.Fatal("streamed replay was not a cache hit on the owning node")
		}
		st.Close()
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("proxy did not drain within 15s")
	}
}

// TestClusterSmokeStreamBinary streams through the proxy with the codec
// pinned to binary: CodecBinary fails unless the answer arrives with the
// application/x-pops-bin Content-Type, so a passing run proves the proxy
// relayed the backend's binary framing (Content-Type included) end to end,
// re-framed chunk by chunk, and that the replay still hits the owning
// node's plan cache.
func TestClusterSmokeStreamBinary(t *testing.T) {
	_, urls := startBackends(t, 3)
	addr, cancel, done := startProxy(t, "-backends", strings.Join(urls, ","))
	client := pops.NewServiceClient("http://"+addr.String(), nil).WithCodec(pops.CodecBinary)
	ctx := context.Background()

	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)
	for attempt := 1; attempt <= 2; attempt++ {
		st, err := client.ExecuteStream(ctx, d, g, pops.Permutation(pi))
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		got := 0
		for {
			rec, err := st.Next()
			if err != nil {
				t.Fatalf("attempt %d: %v", attempt, err)
			}
			if rec == nil {
				break
			}
			got++
		}
		if got != st.Meta().Fragments {
			t.Fatalf("attempt %d: %d fragments, meta promised %d", attempt, got, st.Meta().Fragments)
		}
		if st.Done() == nil {
			t.Fatalf("attempt %d: stream ended without a done frame", attempt)
		}
		if attempt == 2 && !st.Meta().Cached {
			t.Fatal("binary streamed replay was not a cache hit on the owning node")
		}
		st.Close()
	}

	// The unary path holds the same pin: a binary-only client must round-trip
	// /route through the proxy.
	plan, err := client.Execute(ctx, d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Slots != pops.OptimalSlots(d, g) {
		t.Fatalf("slots = %d, want %d", plan.Slots, pops.OptimalSlots(d, g))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("proxy did not drain within 15s")
	}
}

// TestRunRequiresBackends pins the required-flag validation to an error.
func TestRunRequiresBackends(t *testing.T) {
	if err := run(context.Background(), nil, testWriter{t}, nil); err == nil {
		t.Fatal("run accepted an empty -backends")
	}
}

// TestRunRejectsBadFlags pins flag-parse failures to an error.
func TestRunRejectsBadFlags(t *testing.T) {
	err := run(context.Background(), []string{"-retries", "x"}, testWriter{t}, nil)
	if err == nil {
		t.Fatal("bad flags accepted")
	}
}
