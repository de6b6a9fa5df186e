package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pops"
	"pops/internal/service"
	"pops/internal/wire"
)

// fleet boots n in-process popsserved backends (real service handlers over
// real HTTP) plus a proxy over them. Callers get the proxy, the backend
// servers (kill one with .Close()), and the services for direct inspection.
func fleet(t testing.TB, n int, svcCfg service.Config, proxyCfg Config) (*Proxy, []*httptest.Server, []*service.Service) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	services := make([]*service.Service, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := svcCfg
		cfg.Name = fmt.Sprintf("node-%d", i)
		svc := service.New(cfg)
		srv := httptest.NewServer(svc.Handler())
		servers[i], services[i], urls[i] = srv, svc, srv.URL
		t.Cleanup(srv.Close)
		t.Cleanup(svc.Close)
	}
	proxyCfg.Backends = urls
	if proxyCfg.HealthInterval == 0 {
		proxyCfg.HealthInterval = 20 * time.Millisecond
	}
	if proxyCfg.RetryBackoff == 0 {
		proxyCfg.RetryBackoff = time.Millisecond
	}
	p, err := New(proxyCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p, servers, services
}

// TestProxyPlacementAffinity is the cache-affinity core of the design: a
// replayed workload must land on the node that planned it, so the replay is
// a fingerprint-cache hit — across every workload kind — while distinct
// workloads spread over more than one backend.
func TestProxyPlacementAffinity(t *testing.T) {
	p, _, _ := fleet(t, 3, service.Config{BatchDelay: 200 * time.Microsecond}, Config{})
	ctx := context.Background()
	const d, g = 4, 8
	n := d * g

	var workloads []pops.Workload
	for i := 0; i < 12; i++ {
		pi := pops.IdentityPermutation(n)
		// Distinct rotations: i+1 positions.
		for j := range pi {
			pi[j] = (j + i + 1) % n
		}
		workloads = append(workloads, pops.Permutation(pi))
	}
	var reqs []pops.Request
	for s := 0; s < n; s++ {
		reqs = append(reqs, pops.Request{Src: s, Dst: (s + 1) % n}, pops.Request{Src: s, Dst: (s + 2) % n})
	}
	workloads = append(workloads, pops.HRelation(reqs), pops.AllToAll())

	for _, w := range workloads {
		first, err := p.Execute(ctx, d, g, w)
		if err != nil {
			t.Fatalf("%s: %v", w.Kind(), err)
		}
		if first.Cached {
			t.Fatalf("%s: first execution reported a cache hit", w.Kind())
		}
		second, err := p.Execute(ctx, d, g, w)
		if err != nil {
			t.Fatalf("%s replay: %v", w.Kind(), err)
		}
		if !second.Cached {
			t.Fatalf("%s: replay was not a cache hit — placement is not affine", w.Kind())
		}
	}

	used := 0
	for _, bs := range p.Backends() {
		if bs.Requests > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("all workloads landed on %d backend(s); the ring is not spreading", used)
	}
}

// TestProxyFailoverOnBackendDeath kills one backend and asserts every
// subsequent request still succeeds: connection errors eject the node
// immediately and fail over to the next ring owner.
func TestProxyFailoverOnBackendDeath(t *testing.T) {
	p, servers, _ := fleet(t, 3, service.Config{BatchDelay: 200 * time.Microsecond}, Config{})
	ctx := context.Background()
	const d, g = 4, 8
	n := d * g

	servers[1].CloseClientConnections()
	servers[1].Close()

	for i := 0; i < 20; i++ {
		pi := make([]int, n)
		for j := range pi {
			pi[j] = (j + i + 1) % n
		}
		if _, err := p.Execute(ctx, d, g, pops.Permutation(pi)); err != nil {
			t.Fatalf("request %d failed after backend death: %v", i, err)
		}
	}
	bs := p.Backends()
	if bs[1].Healthy {
		t.Fatal("dead backend still marked healthy")
	}
	var failovers uint64
	for _, b := range bs {
		failovers += b.Failovers
	}
	if failovers == 0 {
		t.Fatal("no failovers recorded although a backend died mid-trace")
	}
}

// TestProxyHealthEjectionAndReadmission drives a backend through
// unhealthy → ejected → recovered → re-admitted via the background checker.
func TestProxyHealthEjectionAndReadmission(t *testing.T) {
	var sick atomic.Bool
	svc := service.New(service.Config{})
	t.Cleanup(svc.Close)
	inner := svc.Handler()
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sick.Load() {
			http.Error(w, "sick", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	p, err := New(Config{
		Backends:       []string{flaky.URL},
		HealthInterval: 10 * time.Millisecond,
		FailAfter:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	waitHealthy := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if p.Backends()[0].Healthy == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("backend never became healthy=%v", want)
	}

	waitHealthy(true)
	sick.Store(true)
	waitHealthy(false)
	if err := p.Healthz(context.Background()); err == nil {
		t.Fatal("proxy healthy with every backend ejected")
	}
	sick.Store(false)
	waitHealthy(true)
	if err := p.Healthz(context.Background()); err != nil {
		t.Fatalf("proxy unhealthy after re-admission: %v", err)
	}
}

// TestProxyHTTPRouteAndStream drives the proxy's HTTP surface with the
// unchanged single-node client: plans, a batch, and a slot stream re-framed
// through the proxy must be indistinguishable from one node, and the
// streamed replay must be a cache hit on the owning node.
func TestProxyHTTPRouteAndStream(t *testing.T) {
	p, _, _ := fleet(t, 3, service.Config{BatchDelay: 200 * time.Microsecond}, Config{})
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)
	client := pops.NewServiceClient(front.URL, nil)
	ctx := context.Background()
	const d, g = 4, 8
	n := d * g

	if err := client.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	slots, err := client.Slots(ctx, d, g)
	if err != nil {
		t.Fatal(err)
	}
	if slots != pops.OptimalSlots(d, g) {
		t.Fatalf("slots = %d, want %d", slots, pops.OptimalSlots(d, g))
	}

	pi := pops.VectorReversal(n)
	plan, err := client.Execute(ctx, d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Slots != slots {
		t.Fatalf("plan.Slots = %d, want %d", plan.Slots, slots)
	}

	pis := [][]int{pi, pops.IdentityPermutation(n)}
	plans, err := client.RouteBatch(ctx, d, g, pis)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 || plans[0].Error != "" || plans[1].Error != "" {
		t.Fatalf("batch plans: %+v", plans)
	}

	// Stream through the proxy: meta, every fragment, done.
	st, err := client.ExecuteStream(ctx, d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := 0
	for {
		rec, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		got++
	}
	if got != st.Meta().Fragments {
		t.Fatalf("streamed %d fragments, meta promised %d", got, st.Meta().Fragments)
	}
	if st.Done() == nil {
		t.Fatal("stream ended without a done record")
	}
	st.Close()

	// The same permutation again: the stream was collected into the owning
	// node's plan cache, and affine placement must find it there.
	st2, err := client.ExecuteStream(ctx, d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !st2.Meta().Cached {
		t.Fatal("streamed replay was not a cache hit on the owning node")
	}
}

// TestProxyStreamBackendDeathSurfacesError pins the non-idempotent half of
// the failover contract: a backend dying mid-stream, after records have
// been delivered, must surface as a wire error record — never a silent
// short plan, and never a replay on another node.
func TestProxyStreamBackendDeathSurfacesError(t *testing.T) {
	// A fake backend that speaks just enough of the stream protocol: meta
	// plus one slot record, then the connection is torn down mid-plan.
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fl := w.(http.Flusher)
		enc := json.NewEncoder(w)
		_ = enc.Encode(wire.StreamRecord{Type: "meta", Meta: &wire.StreamMeta{D: 4, G: 8, Slots: 2, Fragments: 8, Strategy: "theorem2"}})
		fl.Flush()
		_ = enc.Encode(wire.StreamRecord{Type: "slot", Slot: &wire.StreamSlot{Slot: 0, Color: 0}})
		fl.Flush()
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close() // hang up mid-stream
		}
	}))
	t.Cleanup(fake.Close)

	p, err := New(Config{Backends: []string{fake.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)

	client := pops.NewServiceClient(front.URL, nil)
	st, err := client.ExecuteStream(context.Background(), 4, 8, pops.Permutation(pops.VectorReversal(32)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec, err := st.Next()
	if err != nil || rec == nil {
		t.Fatalf("first slot record: %v %v", rec, err)
	}
	_, err = st.Next()
	if err == nil {
		t.Fatal("backend hang-up mid-stream did not surface an error")
	}
	if !strings.Contains(err.Error(), "cluster: backend stream") {
		t.Fatalf("mid-stream failure error = %v, want a cluster backend-stream error record", err)
	}
}

// TestProxyStreamIsReframedChunkByChunk speaks raw HTTP/1.1 to the proxy so
// the chunked framing can be counted: the pass-through must flush each
// relayed NDJSON record as its own chunk (the pipelining property), not
// buffer the backend's plan and forward it whole.
func TestProxyStreamIsReframedChunkByChunk(t *testing.T) {
	p, _, _ := fleet(t, 2, service.Config{BatchDelay: 200 * time.Microsecond}, Config{})
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)

	const d, g = 4, 8
	body, err := json.Marshal(wire.RouteRequest{D: d, G: g, Pi: pops.VectorReversal(d * g)})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", front.Listener.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	defer conn.Close()
	fmt.Fprintf(conn, "POST /route/stream HTTP/1.1\r\nHost: popsproxy\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)

	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil || !strings.Contains(status, "200") {
		t.Fatalf("status %q err %v", strings.TrimSpace(status), err)
	}
	chunked := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(line) == "" {
			break
		}
		if strings.EqualFold(strings.TrimSpace(line), "Transfer-Encoding: chunked") {
			chunked = true
		}
	}
	if !chunked {
		t.Fatal("proxy stream response is not chunked")
	}
	chunks, records := 0, 0
	for {
		sizeLine, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		var size uint64
		if _, err := fmt.Sscanf(strings.TrimSpace(sizeLine), "%x", &size); err != nil {
			t.Fatalf("chunk size line %q: %v", strings.TrimSpace(sizeLine), err)
		}
		if size == 0 {
			break
		}
		chunks++
		buf := make([]byte, size+2)
		if _, err := io.ReadFull(br, buf); err != nil {
			t.Fatal(err)
		}
		records += strings.Count(string(buf[:size]), "\n")
	}
	if chunks < 2 {
		t.Fatalf("proxy stream arrived in %d chunk(s); want >= 2 (one per re-framed record)", chunks)
	}
	if records < 3 {
		t.Fatalf("only %d NDJSON records relayed", records)
	}
}

// TestProxyStatsAggregation routes traffic through a 3-node fleet and
// checks GET /stats merges it: counters summed, per-backend identity and
// cache counters attributed, histograms merged.
func TestProxyStatsAggregation(t *testing.T) {
	p, _, _ := fleet(t, 3, service.Config{BatchDelay: 200 * time.Microsecond}, Config{})
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)
	client := pops.NewServiceClient(front.URL, nil)
	ctx := context.Background()
	const d, g = 4, 8
	n := d * g

	const trace = 15
	for i := 0; i < trace; i++ {
		pi := make([]int, n)
		for j := range pi {
			pi[j] = (j + i + 1) % n
		}
		if _, err := client.Execute(ctx, d, g, pops.Permutation(pi)); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Server != "popsproxy" {
		t.Fatalf("stats.Server = %q, want popsproxy", stats.Server)
	}
	if len(stats.Backends) != 3 {
		t.Fatalf("stats lists %d backends, want 3", len(stats.Backends))
	}
	if stats.Requests != trace {
		t.Fatalf("aggregate requests = %d, want %d", stats.Requests, trace)
	}
	var viaBackends, latency uint64
	for i, bs := range stats.Backends {
		if bs.ID == "" || !bs.Healthy {
			t.Fatalf("backend %d: %+v", i, bs)
		}
		if bs.Stats == nil {
			t.Fatalf("backend %d: no self-reported snapshot", i)
		}
		if want := fmt.Sprintf("node-%d", i); bs.Server != want {
			t.Fatalf("backend %d identity = %q, want %q", i, bs.Server, want)
		}
		viaBackends += bs.Stats.Requests
	}
	if viaBackends != trace {
		t.Fatalf("backends report %d requests total, want %d", viaBackends, trace)
	}
	for _, b := range stats.Latency {
		latency += b.Count
	}
	if latency != trace {
		t.Fatalf("merged latency histogram counts %d, want %d", latency, trace)
	}
}

// TestProxyDrain pins Close semantics: after Close the proxy answers 503 on
// /route and Healthz errors, mirroring popsserved's drain.
func TestProxyDrain(t *testing.T) {
	p, _, _ := fleet(t, 1, service.Config{}, Config{})
	front := httptest.NewServer(p.Handler())
	t.Cleanup(front.Close)
	p.Close()
	resp, err := http.Post(front.URL+"/route", "application/json", strings.NewReader(`{"d":4,"g":8,"pi":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain /route status = %d, want 503", resp.StatusCode)
	}
	if err := p.Healthz(context.Background()); err == nil {
		t.Fatal("Healthz nil after Close")
	}
}

// TestFailoverBackoffJitter pins the retry decorrelation contract: every
// failover pause is routed through the proxy's jitter hook with the doubling
// base as input, and the default jitter keeps each pause within [base/2, base]
// without collapsing to a constant.
func TestFailoverBackoffJitter(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, 10 * time.Millisecond, time.Second} {
		lo, hi := d, time.Duration(0)
		for i := 0; i < 500; i++ {
			j := defaultJitter(d)
			if j < d/2 || j > d {
				t.Fatalf("defaultJitter(%v) = %v, outside [%v, %v]", d, j, d/2, d)
			}
			if j < lo {
				lo = j
			}
			if j > hi {
				hi = j
			}
		}
		if lo == hi {
			t.Fatalf("defaultJitter(%v) returned %v on every draw; no jitter at all", d, lo)
		}
	}
	if got := defaultJitter(1); got != 1 {
		t.Fatalf("defaultJitter(1) = %v, want 1 (degenerate pause passes through)", got)
	}

	// Dead backends on every ring position: one Execute walks the full
	// failover chain, so the recorded jitter inputs are exactly the doubling
	// backoff bases.
	urls := make([]string, 3)
	for i := range urls {
		srv := httptest.NewServer(http.NotFoundHandler())
		urls[i] = srv.URL
		srv.Close()
	}
	p, err := New(Config{Backends: urls, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	var seen []time.Duration
	p.jitter = func(d time.Duration) time.Duration {
		seen = append(seen, d)
		return 0
	}
	if _, err := p.Execute(context.Background(), 2, 4, pops.Permutation(pops.IdentityPermutation(8))); err == nil {
		t.Fatal("Execute succeeded against a fleet of dead backends")
	}
	if want := p.cfg.Retries; len(seen) != want {
		t.Fatalf("jitter consulted %d times, want %d (one per failover pause)", len(seen), want)
	}
	for i, d := range seen {
		if want := p.cfg.RetryBackoff << uint(i); d != want {
			t.Fatalf("failover pause %d fed %v to the jitter hook, want %v", i, d, want)
		}
	}
}

// TestRequestKeyFaultyPlacement pins proxy/backend cache agreement for the
// fault-aware workload: the HTTP placement key must equal the fingerprint key
// of the equivalent pops.FaultyPermutation (including fault-set
// canonicalization), and must differ from the plain permutation's key so the
// two cannot collide on one backend's cache entry.
func TestRequestKeyFaultyPlacement(t *testing.T) {
	pi := []int{1, 0, 3, 2}
	req := &wire.RouteRequest{
		D: 2, G: 2, Workload: wire.WorkloadFaultyPermutation, Pi: pi,
		// Deliberately non-canonical spelling: duplicate coupler, unsorted.
		Faults: &wire.FaultSet{Couplers: []wire.Coupler{{B: 1, A: 0}, {B: 1, A: 0}}, Groups: []int{1}},
	}
	w := pops.FaultyPermutation(pi, pops.FaultSet{Couplers: []pops.Coupler{{B: 1, A: 0}}, Groups: []int{1}})
	if got, want := requestKey(req), placementKey(2, 2, pops.WorkloadFingerprint(w)); got != want {
		t.Fatalf("requestKey = %#x, want the workload fingerprint key %#x", got, want)
	}
	plain := &wire.RouteRequest{D: 2, G: 2, Pi: pi}
	if requestKey(req) == requestKey(plain) {
		t.Fatal("faulty-permutation request keyed identically to the plain permutation")
	}
}
