package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pops"
	"pops/internal/obs"
	"pops/internal/service"
	"pops/internal/wire"
)

func proxyRouteBody(t *testing.T, d, g int, pi []int) *bytes.Reader {
	t.Helper()
	blob, err := json.Marshal(wire.RouteRequest{D: d, G: g, Pi: pi})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(blob)
}

// TestProxyRelaysRequestIDAndHeaders pins the pass-through contract of both
// proxied paths: the backend's X-Request-Id echo and content type must reach
// the client — on /route/stream the 200 path used to overwrite them with a
// hardcoded content type, dropping the request-ID echo entirely. The same ID
// set through pops.ContextWithRequestID must come back to ServiceClient in
// either codec, and a call without one still gets the node's own ID.
func TestProxyRelaysRequestIDAndHeaders(t *testing.T) {
	p, _, _ := fleet(t, 2, service.Config{BatchDelay: 200 * time.Microsecond}, Config{})
	front, client := serveFront(t, p)
	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)

	req, _ := http.NewRequest("POST", front.URL+"/route", proxyRouteBody(t, d, g, pi))
	req.Header.Set("X-Request-Id", "hop-trace-1")
	resp, err := front.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rr wire.RouteResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "hop-trace-1" {
		t.Errorf("/route header through proxy = %q, want hop-trace-1", got)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Errorf("/route Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	// The same ID travelled proxy -> backend -> response body.
	if rr.RequestID != "hop-trace-1" {
		t.Errorf("backend request_id through proxy = %q, want hop-trace-1", rr.RequestID)
	}

	req, _ = http.NewRequest("POST", front.URL+"/route/stream", proxyRouteBody(t, d, g, pi))
	req.Header.Set("X-Request-Id", "hop-trace-2")
	resp, err = front.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "hop-trace-2" {
		t.Errorf("/route/stream header through proxy = %q, want hop-trace-2", got)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("/route/stream Content-Type = %q, want the backend's application/x-ndjson", got)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no meta record: %v", sc.Err())
	}
	var rec wire.StreamRecord
	if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Meta == nil || rec.Meta.RequestID != "hop-trace-2" {
		t.Errorf("stream meta through proxy = %+v, want request_id hop-trace-2", rec.Meta)
	}

	for _, codec := range []pops.ServiceCodec{pops.CodecJSON, pops.CodecBinary} {
		c := client.WithCodec(codec)
		for _, id := range []string{"client-trace-1", ""} {
			ctx := pops.ContextWithRequestID(t.Context(), id)
			rr, err := c.Do(ctx, &pops.ServiceRouteRequest{D: d, G: g, Pi: pi})
			if err != nil {
				t.Fatal(err)
			}
			st, err := c.ExecuteStream(ctx, d, g, pops.Permutation(pi))
			if err != nil {
				t.Fatal(err)
			}
			meta := st.Meta()
			st.Close()
			for call, got := range map[string]string{"Do": rr.RequestID, "ExecuteStream": meta.RequestID} {
				if (id != "" && got != id) || got == "" {
					t.Errorf("codec %d, ContextWithRequestID %q: %s request_id = %q", codec, id, call, got)
				}
			}
		}
	}
}

func TestProxyMetricsEndpoint(t *testing.T) {
	p, _, _ := fleet(t, 2, service.Config{BatchDelay: 200 * time.Microsecond}, Config{})
	front, _ := serveFront(t, p)
	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)

	resp, err := front.Client().Post(front.URL+"/route", "application/json", proxyRouteBody(t, d, g, pi))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = front.Client().Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"pops_fleet_backends 2",
		"pops_fleet_healthy_backends 2",
		"pops_fleet_requests_total 1",
		"# TYPE pops_proxy_request_latency_seconds histogram",
		"pops_proxy_request_latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("proxy /metrics missing %q\n%s", want, text)
		}
	}
	// Per-backend series are labeled by ring identity, and exactly one
	// backend took the placement.
	placed := 0
	for _, bs := range p.Backends() {
		if strings.Contains(text, `pops_proxy_backend_requests_total{backend="`+bs.ID+`"} 1`) {
			placed++
		}
	}
	if placed != 1 {
		t.Errorf("found %d backends with 1 placed request in the exposition, want 1", placed)
	}
}

func TestProxyDebugSlowAttributesBackend(t *testing.T) {
	p, _, _ := fleet(t, 2, service.Config{BatchDelay: 200 * time.Microsecond}, Config{})
	front, _ := serveFront(t, p)
	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)

	req, _ := http.NewRequest("POST", front.URL+"/route", proxyRouteBody(t, d, g, pi))
	req.Header.Set("X-Request-Id", "slow-hop-1")
	resp, err := front.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = front.Client().Get(front.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	var slow wire.SlowResponse
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slow.Server != "popsproxy" {
		t.Errorf("server = %q, want popsproxy", slow.Server)
	}
	if len(slow.Requests) != 1 {
		t.Fatalf("retained %d requests, want 1", len(slow.Requests))
	}
	r := slow.Requests[0]
	if r.ID != "slow-hop-1" || r.Backend == "" {
		t.Errorf("proxy slow entry missing id or backend identity: %+v", r)
	}
	var sawForward bool
	for _, ph := range r.Phases {
		if ph.Phase == "forward" && ph.Micros > 0 {
			sawForward = true
		}
	}
	if !sawForward {
		t.Errorf("proxy span has no forward phase: %+v", r.Phases)
	}
}

func TestProxyStatsAggregatesPlanTimes(t *testing.T) {
	p, _, _ := fleet(t, 3, service.Config{BatchDelay: 200 * time.Microsecond}, Config{})
	_, client := serveFront(t, p)
	ctx := context.Background()
	const d, g = 4, 8
	n := d * g
	for i := 0; i < 6; i++ {
		pi := pops.IdentityPermutation(n)
		for j := range pi {
			pi[j] = (j + i + 1) % n
		}
		if _, err := client.Execute(ctx, d, g, pops.Permutation(pi)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := p.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.PlanTimes) == 0 {
		t.Fatal("fleet stats has no plan_times")
	}
	var total uint64
	for _, pt := range st.PlanTimes {
		if pt.D != d || pt.G != g {
			t.Errorf("unexpected plan-time key (%d,%d,%s)", pt.D, pt.G, pt.Strategy)
		}
		if pt.Count > 0 && pt.EWMAMicros <= 0 {
			t.Errorf("key (%d,%d,%s): %d plans but EWMA %g", pt.D, pt.G, pt.Strategy, pt.Count, pt.EWMAMicros)
		}
		total += pt.Count
	}
	// Every planned permutation across the fleet shows up in the aggregate.
	if total != 6 {
		t.Errorf("aggregate plan count = %d, want 6", total)
	}
}

func TestProxyEjectionCounter(t *testing.T) {
	p, servers, _ := fleet(t, 2, service.Config{BatchDelay: 200 * time.Microsecond}, Config{FailAfter: 1})
	_, client := serveFront(t, p)
	ctx := context.Background()
	const d, g = 4, 8

	// Kill one backend and keep routing until its ejection is observed —
	// either the failed placement or the health probe flips it.
	servers[0].Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		pi := pops.VectorReversal(d * g)
		_, _ = client.Execute(ctx, d, g, pops.Permutation(pi))
		var ejections uint64
		for _, bs := range p.Backends() {
			ejections += bs.Ejections
		}
		if ejections >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backend death never counted as an ejection")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Staying unhealthy must not inflate the counter: ejections count
	// healthy-to-ejected transitions, not failed probes.
	time.Sleep(100 * time.Millisecond)
	var ejections uint64
	for _, bs := range p.Backends() {
		ejections += bs.Ejections
	}
	if ejections > 2 {
		t.Errorf("ejections = %d after one backend death; repeated probe failures must not re-count", ejections)
	}
}

// TestProxySpanWorkloadTags pins one kind taxonomy across tiers: a proxied
// request's span is tagged from the workload placement decodes, with the
// node's wire.KindTag — so both spellings of a permutation read "" at the
// proxy exactly as at the node — and an undecodable request gets the fixed
// wire.KindUndecoded tag, never the client's kind string.
func TestProxySpanWorkloadTags(t *testing.T) {
	p, servers, _ := fleet(t, 1, service.Config{BatchDelay: 200 * time.Microsecond}, Config{})
	front, _ := serveFront(t, p)
	const d, g = 2, 2
	pi := []int{1, 0, 3, 2}
	cases := []struct {
		name   string
		req    wire.RouteRequest
		want   string
		traced bool // the node traces it too (it plans batches untraced and refuses unknown kinds)
	}{
		{"permutation", wire.RouteRequest{D: d, G: g, Pi: pi}, "", true},
		{"permutation-tagged", wire.RouteRequest{D: d, G: g, Workload: wire.WorkloadPermutation, Pi: pi}, "", true},
		{"hrelation", wire.RouteRequest{D: d, G: g, Workload: wire.WorkloadHRelation, Requests: []wire.Request{{Src: 0, Dst: 3}, {Src: 1, Dst: 2}}}, wire.WorkloadHRelation, true},
		{"all-to-all", wire.RouteRequest{D: d, G: g, Workload: wire.WorkloadAllToAll}, wire.WorkloadAllToAll, true},
		{"one-to-all", wire.RouteRequest{D: d, G: g, Workload: wire.WorkloadOneToAll, Speaker: 1}, wire.WorkloadOneToAll, true},
		{"faulty-permutation", wire.RouteRequest{D: d, G: g, Workload: wire.WorkloadFaultyPermutation, Pi: pi,
			Faults: &wire.FaultSet{Couplers: []wire.Coupler{{B: 1, A: 0}}}}, wire.WorkloadFaultyPermutation, true},
		{"batch", wire.RouteRequest{D: d, G: g, Pis: [][]int{pi, {0, 1, 2, 3}}}, "", false},
		{"unknown", wire.RouteRequest{D: d, G: g, Workload: "gossip", Pi: pi}, wire.KindUndecoded, false},
	}
	slowTags := func(url string) map[string]string {
		t.Helper()
		resp, err := front.Client().Get(url + "/debug/slow")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var slow wire.SlowResponse
		if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
			t.Fatal(err)
		}
		tags := make(map[string]string, len(slow.Requests))
		for _, r := range slow.Requests {
			tags[r.ID] = r.Workload
		}
		return tags
	}
	for _, c := range cases {
		for _, path := range []string{"/route", "/route/stream"} {
			blob, err := json.Marshal(c.req)
			if err != nil {
				t.Fatal(err)
			}
			req, _ := http.NewRequest("POST", front.URL+path, bytes.NewReader(blob))
			req.Header.Set("X-Request-Id", c.name+path)
			resp, err := front.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	proxyTags, nodeTags := slowTags(front.URL), slowTags(servers[0].URL)
	for _, c := range cases {
		for _, path := range []string{"/route", "/route/stream"} {
			id := c.name + path
			got, ok := proxyTags[id]
			if !ok || got != c.want {
				t.Errorf("%s: proxy span workload = %q (retained %v), want %q", id, got, ok, c.want)
			}
			if node, ok := nodeTags[id]; ok && node != got {
				t.Errorf("%s: node span workload %q, proxy %q", id, node, got)
			} else if !ok && c.traced {
				t.Errorf("%s: node retained no span", id)
			}
		}
	}
}
