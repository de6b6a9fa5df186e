package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"pops"
	"pops/internal/wire"
	"pops/internal/wirebin"
)

// The goldens pin what an operator reads after a fixed request script: every
// /metrics line (family name, type, help text, label keys and each
// deterministic value) and every /stats JSON key path with its deterministic
// value. Timing-dependent values are masked as "*". A diff means the
// operator-visible schema or a counter changed — review deliberately and
// regenerate with REGEN_GOLDEN=1.
const (
	metricsGoldenPath = "testdata/metrics_golden.txt"
	statsGoldenPath   = "testdata/stats_golden.txt"
)

// goldenService runs the fixed request script through Handler and returns
// the handler with every counter settled. The script covers a planned
// permutation and its cache-hit replay, an h-relation, a faulty
// permutation, an NDJSON and a binary slot stream, tenants "a" and "", and
// one request whose X-Deadline has already passed.
func goldenService(t *testing.T) http.Handler {
	t.Helper()
	svc := New(Config{Name: "golden-node"})
	t.Cleanup(svc.Close)
	h := svc.Handler()
	const d, g = 4, 8
	rotate := func(n, k int) []int {
		pi := make([]int, n)
		for i := range pi {
			pi[i] = (i + k) % n
		}
		return pi
	}
	var hrel []wire.Request
	for i := 0; i < 16; i++ {
		hrel = append(hrel, wire.Request{Src: i, Dst: (i + 1) % 16}, wire.Request{Src: i, Dst: (i + 5) % 16})
	}
	script := []struct {
		path   string
		req    wire.RouteRequest
		hdr    map[string]string
		status int
	}{
		{"/route", wire.RouteRequest{D: d, G: g, Tenant: "a", Pi: pops.VectorReversal(d * g)}, nil, 200},
		{"/route", wire.RouteRequest{D: d, G: g, Tenant: "a", Pi: pops.VectorReversal(d * g)}, nil, 200},
		{"/route", wire.RouteRequest{D: 4, G: 4, Workload: wire.WorkloadHRelation, Requests: hrel}, nil, 200},
		{"/route", wire.RouteRequest{D: 4, G: 4, Workload: wire.WorkloadFaultyPermutation, Pi: rotate(16, 3),
			Faults: &wire.FaultSet{Couplers: []wire.Coupler{{B: 1, A: 2}}}}, nil, 200},
		{"/route/stream", wire.RouteRequest{D: d, G: g, Pi: rotate(d*g, 3)}, nil, 200},
		{"/route/stream", wire.RouteRequest{D: d, G: g, Tenant: "a", Pi: rotate(d*g, 5)},
			map[string]string{"Accept": wirebin.ContentType}, 200},
		{"/route", wire.RouteRequest{D: d, G: g, Pi: rotate(d*g, 7)},
			map[string]string{wire.HeaderDeadline: wire.EncodeDeadline(time.Unix(1, 0))}, 504},
	}
	for i, step := range script {
		blob, err := json.Marshal(step.req)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", step.path, bytes.NewReader(blob))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", fmt.Sprintf("golden-%d", i))
		for k, v := range step.hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != step.status {
			t.Fatalf("script step %d (%s) = %d, want %d: %s", i, step.path, rec.Code, step.status, rec.Body.String())
		}
	}
	return h
}

func getBody(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	return rec.Body.String()
}

// maskedMetric matches the exposition samples whose values depend on timing:
// histogram buckets and sums, and EWMA gauges. _count samples stay exact.
var maskedMetric = regexp.MustCompile(`^pops_\w+(_bucket|_sum|_ewma_seconds)(\{|$)`)

// metricsGoldenLines renders an exposition as sorted lines with the
// timing-dependent sample values masked.
func metricsGoldenLines(text string) []string {
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "#") {
			series, _, _ := cutLast(line, " ")
			if maskedMetric.MatchString(series) {
				line = series + " *"
			}
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return lines
}

func cutLast(s, sep string) (before, after string, found bool) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):], true
	}
	return s, "", false
}

// maskedStat matches the /stats leaf paths whose values depend on timing:
// histogram bucket counts, EWMAs and time sums, and the admission queue's
// batching counters (how requests coalesce is scheduling, not schema).
var maskedStat = regexp.MustCompile(`((latency|time_to_first_slot|buckets)\[\d+\]\.count|ewma_us|sum_us|\.batches|\.batched_requests|\.max_batch)$`)

// statsGoldenLines flattens a /stats document into sorted "path = value"
// lines, one per JSON leaf, with the timing-dependent values masked.
func statsGoldenLines(t *testing.T, doc string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	var lines []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				p := k
				if path != "" {
					p = path + "." + k
				}
				walk(p, e)
			}
		case []any:
			if len(x) == 0 {
				lines = append(lines, path+" = []")
			}
			for i, e := range x {
				walk(fmt.Sprintf("%s[%d]", path, i), e)
			}
		default:
			val := fmt.Sprint(x)
			if x == nil {
				val = "null"
			} else if maskedStat.MatchString(path) {
				val = "*"
			}
			lines = append(lines, path+" = "+val)
		}
	}
	walk("", v)
	sort.Strings(lines)
	return lines
}

// checkGolden compares got against the golden file at path. With exact set,
// the two must match line for line; otherwise every golden line must still
// be present and lines the golden lacks are only logged — a new omitempty
// /stats field extends the document without breaking a reader of the old
// one, while a renamed or removed field, or a changed counter, fails.
func checkGolden(t *testing.T, path string, got []string, exact bool) {
	t.Helper()
	text := strings.Join(got, "\n") + "\n"
	if os.Getenv("REGEN_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d lines)", path, len(got))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (REGEN_GOLDEN=1 to regenerate): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := make(map[string]bool, len(got))
	for _, l := range got {
		have[l] = true
	}
	known := make(map[string]bool, len(want))
	for _, l := range want {
		known[l] = true
		if !have[l] {
			t.Errorf("%s: line missing or changed: %s", path, l)
		}
	}
	for _, l := range got {
		if !known[l] {
			if exact {
				t.Errorf("%s: unexpected line: %s", path, l)
			} else {
				t.Logf("%s: new line: %s", path, l)
			}
		}
	}
}

func TestMetricsGolden(t *testing.T) {
	h := goldenService(t)
	checkGolden(t, metricsGoldenPath, metricsGoldenLines(getBody(t, h, "/metrics")), true)
}

func TestStatsGolden(t *testing.T) {
	h := goldenService(t)
	checkGolden(t, statsGoldenPath, statsGoldenLines(t, getBody(t, h, "/stats")), false)
}

// responsesGoldenPath pins the exact bytes every answer of the response
// script carries.
const responsesGoldenPath = "testdata/responses_golden.txt"

// responseScript is one request of each workload kind — a permutation and
// its cache-hit replay, a batch, an h-relation, all-to-all, one-to-all and a
// faulty permutation — plus malformed kind/payload combinations, whose
// status (not their error text) is pinned.
func responseScript() []wire.RouteRequest {
	const d, g = 2, 4
	pi := pops.VectorReversal(d * g)
	var hrel []wire.Request
	for i := 0; i < d*g; i++ {
		hrel = append(hrel, wire.Request{Src: i, Dst: (i + 1) % (d * g)}, wire.Request{Src: i, Dst: (i + 3) % (d * g)})
	}
	faults := &wire.FaultSet{Couplers: []wire.Coupler{{B: 1, A: 2}, {B: 1, A: 2}}}
	return []wire.RouteRequest{
		{D: d, G: g, Pi: pi, IncludeSchedule: true},
		{D: d, G: g, Pi: pi, IncludeSchedule: true},
		{D: d, G: g, Pis: [][]int{pops.IdentityPermutation(d * g), pi}, IncludeSchedule: true},
		{D: d, G: g, Workload: wire.WorkloadHRelation, Requests: hrel, IncludeSchedule: true},
		{D: d, G: g, Workload: wire.WorkloadAllToAll, IncludeSchedule: true},
		{D: d, G: g, Workload: wire.WorkloadOneToAll, Speaker: 5, IncludeSchedule: true},
		{D: 4, G: 4, Workload: wire.WorkloadFaultyPermutation, Pi: pops.VectorReversal(16), Faults: faults, IncludeSchedule: true},
		// Malformed: each is a 400 on both endpoints.
		{D: d, G: g},
		{D: d, G: g, Pi: pi, Pis: [][]int{pi}},
		{D: d, G: g, Pi: pi, Faults: faults},
		{D: d, G: g, Pis: [][]int{pi}, Faults: faults},
		{D: d, G: g, Workload: wire.WorkloadHRelation, Requests: hrel, Pi: pi},
		{D: d, G: g, Workload: wire.WorkloadAllToAll, Pi: pi},
		{D: d, G: g, Workload: wire.WorkloadAllToAll, Requests: hrel},
		{D: d, G: g, Workload: wire.WorkloadOneToAll, Pis: [][]int{pi}},
		{D: d, G: g, Workload: wire.WorkloadFaultyPermutation},
		{D: d, G: g, Workload: wire.WorkloadFaultyPermutation, Pi: pi, Requests: hrel},
		{D: d, G: g, Workload: "gossip"},
		{D: d, G: g, Pi: pi, Strategy: "greedy"},
		{D: d, G: g, Workload: wire.WorkloadHRelation, Requests: hrel, Strategy: "auto"},
	}
}

// TestRouteResponsesGolden pins every /route and /route/stream answer of
// the response script, in JSON/NDJSON and in the binary codec, byte for
// byte: each (endpoint, codec) pair runs the script against a fresh service
// under a fixed X-Request-Id, so the permutation replay is the one cache hit
// and every recorded body is deterministic. Binary bodies are recorded as
// hex. Regenerate with REGEN_GOLDEN=1.
func TestRouteResponsesGolden(t *testing.T) {
	var got []string
	for _, path := range []string{"/route", "/route/stream"} {
		for _, accept := range []string{"", wirebin.ContentType} {
			svc := New(Config{Name: "golden-node"})
			h := svc.Handler()
			for i, step := range responseScript() {
				blob, err := json.Marshal(step)
				if err != nil {
					t.Fatal(err)
				}
				req := httptest.NewRequest("POST", path, bytes.NewReader(blob))
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Request-Id", fmt.Sprintf("golden-%d", i))
				if accept != "" {
					req.Header.Set("Accept", accept)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				got = append(got, fmt.Sprintf("== POST %s accept=%q %s", path, accept, blob))
				got = append(got, fmt.Sprintf("%d %s", rec.Code, rec.Header().Get("Content-Type")))
				if rec.Code != http.StatusOK {
					continue // error text is not part of the pinned contract
				}
				body := rec.Body.String()
				if wirebin.IsContentType(rec.Header().Get("Content-Type")) {
					body = fmt.Sprintf("%x", rec.Body.Bytes())
				}
				got = append(got, strings.Split(strings.TrimSuffix(body, "\n"), "\n")...)
			}
			svc.Close()
		}
	}
	checkGolden(t, responsesGoldenPath, got, true)
	// checkGolden compares line sets; record order and the repeated replay
	// lines are part of this contract, so the sequence must match too.
	if raw, err := os.ReadFile(responsesGoldenPath); err == nil && !t.Failed() && string(raw) != strings.Join(got, "\n")+"\n" {
		t.Errorf("%s: same lines, different order or multiplicity", responsesGoldenPath)
	}
}
