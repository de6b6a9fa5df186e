package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pops"
	"pops/internal/cluster"
	"pops/internal/wire"
	"pops/internal/wirebin"
)

// TestOnlyTheoremTwoIsServed pins the service's one strategy check: a
// request naming a strategy other than "" or "theorem2" gets 400 on every
// route surface (single /route, batch /route, /route/stream) in both request
// codecs (JSON body, wirebin request frame), directly and through a proxy,
// before any shard is created or any request counted. The two accepted
// spellings still plan Theorem 2.
func TestOnlyTheoremTwoIsServed(t *testing.T) {
	svc, srv := newCodecTestServer(t, Config{})
	p, err := cluster.New(cluster.Config{Backends: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	proxy := httptest.NewServer(p.Handler())
	t.Cleanup(proxy.Close)

	const d, g = 2, 4
	pi := pops.VectorReversal(d * g)
	surfaces := []struct {
		name, path string
		req        wire.RouteRequest
	}{
		{"single", "/route", wire.RouteRequest{D: d, G: g, Pi: pi}},
		{"batch", "/route", wire.RouteRequest{D: d, G: g, Pis: [][]int{pi, pops.IdentityPermutation(d * g)}}},
		{"stream", "/route/stream", wire.RouteRequest{D: d, G: g, Pi: pi}},
	}
	codecs := []struct {
		name, contentType string
		encode            func(*wire.RouteRequest) []byte
	}{
		{"json", "application/json", func(req *wire.RouteRequest) []byte {
			b, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"wirebin", wirebin.ContentType, func(req *wire.RouteRequest) []byte {
			enc := wirebin.GetEncoder()
			defer wirebin.PutEncoder(enc)
			return append([]byte(nil), enc.AppendRequest(req)...)
		}},
	}
	send := func(t *testing.T, to *httptest.Server, path, strategy string, req wire.RouteRequest, contentType string, encode func(*wire.RouteRequest) []byte) (int, string) {
		t.Helper()
		req.Strategy = strategy
		resp := postRoute(t, to, path, encode(&req), contentType, "")
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	for _, strategy := range []string{"greedy", "auto", "nonsense"} {
		for _, sf := range surfaces {
			for _, c := range codecs {
				status, body := send(t, srv, sf.path, strategy, sf.req, c.contentType, c.encode)
				if status != http.StatusBadRequest || !strings.Contains(body, "not served") {
					t.Errorf("%s %s/%s: status %d body %q, want 400 naming the unserved strategy", strategy, sf.name, c.name, status, body)
				}
			}
		}
	}

	// Through the proxy the backend's 400 is relayed as-is; a rejected
	// request is an answer, not a backend failure.
	if status, body := send(t, proxy, "/route", "greedy", surfaces[0].req, "application/json", codecs[0].encode); status != http.StatusBadRequest {
		t.Errorf("proxy: status %d body %q, want the backend's 400", status, body)
	}
	for _, b := range p.Backends() {
		if b.Failovers != 0 || b.Errors != 0 || b.Ejections != 0 {
			t.Errorf("proxy charged backend %s for a 400: failovers %d errors %d ejections %d", b.ID, b.Failovers, b.Errors, b.Ejections)
		}
	}

	if stats := svc.Stats(); stats.ShardCount != 0 || stats.Requests != 0 {
		t.Fatalf("after rejections: shard_count %d requests %d, want 0 and 0", stats.ShardCount, stats.Requests)
	}

	for _, strategy := range []string{"", pops.StrategyTheoremTwo} {
		for _, sf := range surfaces {
			for _, c := range codecs {
				status, body := send(t, srv, sf.path, strategy, sf.req, c.contentType, c.encode)
				if status != http.StatusOK || !strings.Contains(body, `"strategy":"theorem2"`) || strings.Contains(body, `"error"`) {
					t.Errorf("strategy %q %s/%s: status %d body %q, want a Theorem 2 plan", strategy, sf.name, c.name, status, body)
				}
			}
		}
	}
}
