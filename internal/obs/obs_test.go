package obs

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSpanPhaseAccounting(t *testing.T) {
	sp := &Span{start: time.Now()}
	sp.Add(PhaseQueue, 3*time.Millisecond)
	sp.Add(PhaseFactorize, 5*time.Millisecond)
	sp.Add(PhaseFactorize, 2*time.Millisecond) // accumulates, not overwrites
	sp.Begin(PhaseEncode)
	time.Sleep(time.Millisecond)
	sp.End()

	if got := sp.Phase(PhaseQueue); got != 3*time.Millisecond {
		t.Errorf("PhaseQueue = %v, want 3ms", got)
	}
	if got := sp.Phase(PhaseFactorize); got != 7*time.Millisecond {
		t.Errorf("PhaseFactorize = %v, want 7ms (accumulated)", got)
	}
	if got := sp.Phase(PhaseEncode); got <= 0 {
		t.Errorf("PhaseEncode = %v, want > 0 after Begin/End", got)
	}
	want := sp.Phase(PhaseQueue) + sp.Phase(PhaseFactorize) + sp.Phase(PhaseEncode)
	if got := sp.PhaseTotal(); got != want {
		t.Errorf("PhaseTotal = %v, want %v", got, want)
	}
	total := sp.Finish()
	if total <= 0 || sp.total != total {
		t.Errorf("Finish = %v, span total = %v: want equal and positive", total, sp.total)
	}
}

func TestSpanBeginClosesOpenPhase(t *testing.T) {
	sp := &Span{start: time.Now()}
	sp.Begin(PhaseCache)
	time.Sleep(time.Millisecond)
	sp.Begin(PhaseFactorize) // implicitly ends cache
	time.Sleep(time.Millisecond)
	sp.Finish() // closes factorize
	if sp.Phase(PhaseCache) <= 0 {
		t.Error("PhaseCache not recorded: Begin should close the previously open phase")
	}
	if sp.Phase(PhaseFactorize) <= 0 {
		t.Error("PhaseFactorize not recorded: Finish should close the open phase")
	}
}

func TestSpanNegativeAddIgnored(t *testing.T) {
	sp := &Span{start: time.Now()}
	sp.Add(PhaseVerify, -time.Second)
	sp.Add(PhaseVerify, 0)
	if got := sp.Phase(PhaseVerify); got != 0 {
		t.Errorf("Phase(Verify) = %v after non-positive Adds, want 0", got)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var sp *Span
	sp.Begin(PhaseQueue)
	sp.End()
	sp.Add(PhaseCache, time.Second)
	if sp.Finish() != 0 || sp.Phase(PhaseQueue) != 0 || sp.PhaseTotal() != 0 {
		t.Error("nil span methods must all return zero")
	}
	if ContextWithSpan(context.Background(), nil) != context.Background() {
		t.Error("ContextWithSpan(nil) should return ctx unchanged")
	}
	if SpanFromContext(context.Background()) != nil {
		t.Error("SpanFromContext on a bare context should be nil")
	}
	if SpanFromContext(nil) != nil { //nolint:staticcheck // nil ctx is the point
		t.Error("SpanFromContext(nil) should be nil")
	}
}

func TestSpanContextRoundTrip(t *testing.T) {
	sp := &Span{ID: "abc"}
	ctx := ContextWithSpan(context.Background(), sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Fatalf("SpanFromContext = %p, want %p", got, sp)
	}
}

func TestTracerReusesSpans(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.Start("id-1", 4, 4)
	sp.Add(PhaseFactorize, time.Millisecond)
	sp.Strategy = "pops"
	tr.Finish(sp)
	sp2 := tr.Start("id-2", 8, 8)
	// Whether or not the pool handed back the same object, the reset must
	// clear prior identity and phase state.
	if sp2.ID != "id-2" || sp2.D != 8 || sp2.Strategy != "" || sp2.Phase(PhaseFactorize) != 0 {
		t.Errorf("recycled span not reset: %+v", sp2)
	}
	tr.Finish(sp2)
}

func TestTracerAbandonLeavesSpanAlone(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.Start("abandoned", 4, 4)
	sp.Add(PhaseQueue, time.Millisecond)
	if d := tr.Abandon(sp); d < 0 {
		t.Errorf("Abandon = %v, want >= 0", d)
	}
	// Phase state untouched (a late flush-goroutine write must still land in
	// a consistent span), and the abandoned request never enters the ring.
	if got := sp.Phase(PhaseQueue); got != time.Millisecond {
		t.Errorf("Abandon mutated phase state: PhaseQueue = %v", got)
	}
	if got := tr.Slow.Snapshot(0); len(got) != 0 {
		t.Errorf("abandoned span entered the slow ring: %v", got)
	}
	if tr.Abandon(nil) != 0 {
		t.Error("Abandon(nil) should return 0")
	}
}

// TestSpanAllocBudget pins the zero-allocation contract of hot-path span
// recording: phase Begin/End/Add, context extraction, and the full tracer
// Start/Finish cycle (pool steady state) must not allocate. make alloc-guard
// runs this test; a regression here puts allocations on every request.
func TestSpanAllocBudget(t *testing.T) {
	tr := NewTracer(4)
	// Warm the pool and the slow ring's fast-reject floor: fill the ring with
	// slow spans so subsequent fast requests take the no-alloc reject path.
	for i := 0; i < 8; i++ {
		sp := tr.Start("warm", 4, 4)
		sp.Add(PhaseFactorize, time.Hour)
		sp.total = time.Hour // pre-set so Finish's Since() can't underrun
		tr.Finish(sp)
	}
	ctx := ContextWithSpan(context.Background(), tr.Start("hot", 4, 4))

	allocs := testing.AllocsPerRun(1000, func() {
		sp := SpanFromContext(ctx)
		sp.Begin(PhaseCache)
		sp.End()
		sp.Add(PhaseFactorize, 42*time.Nanosecond)
	})
	if allocs != 0 {
		t.Errorf("span recording allocated %.1f allocs/op, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(1000, func() {
		sp := tr.Start("hot", 4, 4)
		sp.Add(PhaseCache, time.Nanosecond)
		tr.Finish(sp)
	})
	if allocs != 0 {
		t.Errorf("tracer Start/Finish allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	cases := []struct {
		d    time.Duration
		want int // bucket index
	}{
		{0, 0},
		{500 * time.Nanosecond, 0}, // sub-microsecond truncates to 0µs
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2}, // (2µs, 4µs]
		{4 * time.Microsecond, 2},
		{5 * time.Microsecond, 3},
		{1 << 17 * time.Microsecond, 17},
		{1 << 18 * time.Microsecond, 18},
		{(1<<18 + 1) * time.Microsecond, 19}, // overflow bucket
		{time.Hour, 19},
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	snap := h.Snapshot()
	if len(snap) != BucketCount {
		t.Fatalf("snapshot has %d buckets, want %d", len(snap), BucketCount)
	}
	want := make([]uint64, BucketCount)
	for _, c := range cases {
		want[c.want]++
	}
	for i, b := range snap {
		if b.Count != want[i] {
			t.Errorf("bucket %d (le=%dµs): count %d, want %d", i, b.LEMicros, b.Count, want[i])
		}
		wantLE := uint64(1) << i
		if i == BucketCount-1 {
			wantLE = 0
		}
		if b.LEMicros != wantLE {
			t.Errorf("bucket %d: le=%d, want %d", i, b.LEMicros, wantLE)
		}
	}
	if got := h.Count(); got != uint64(len(cases)) {
		t.Errorf("Count = %d, want %d", got, len(cases))
	}
	var wantSum time.Duration
	for _, c := range cases {
		wantSum += c.d
	}
	if got := h.Sum(); got != wantSum {
		t.Errorf("Sum = %v, want %v", got, wantSum)
	}
}

func TestSlowRingRetainsSlowest(t *testing.T) {
	r := NewSlowRing(4)
	for i := 1; i <= 10; i++ {
		sp := &Span{ID: fmt.Sprintf("req-%d", i), total: time.Duration(i) * time.Millisecond}
		r.Record(sp)
	}
	got := r.Snapshot(0)
	if len(got) != 4 {
		t.Fatalf("ring kept %d entries, want 4", len(got))
	}
	// Slowest first: 10, 9, 8, 7 ms.
	for i, want := range []string{"req-10", "req-9", "req-8", "req-7"} {
		if got[i].ID != want {
			t.Errorf("snapshot[%d] = %s (%.0fµs), want %s", i, got[i].ID, got[i].TotalMicros, want)
		}
	}
	if limited := r.Snapshot(2); len(limited) != 2 || limited[0].ID != "req-10" {
		t.Errorf("Snapshot(2) = %v, want top 2 slowest", limited)
	}
}

func TestSlowRingFastReject(t *testing.T) {
	r := NewSlowRing(2)
	r.Record(&Span{ID: "slow-1", total: time.Second})
	r.Record(&Span{ID: "slow-2", total: 2 * time.Second})
	if !r.full.Load() {
		t.Fatal("ring should be full after capacity inserts")
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Record(&Span{ID: "fast", total: time.Microsecond})
	})
	// The Span literal escapes analysis-free; the Record call itself must not
	// snapshot a rejected request.
	if allocs > 1 {
		t.Errorf("fast-reject path allocated %.1f allocs/op, want <= 1 (the test's own literal)", allocs)
	}
	for _, s := range r.Snapshot(0) {
		if s.ID == "fast" {
			t.Error("fast request displaced a slower one")
		}
	}
}

func TestSpanSnapshotPhases(t *testing.T) {
	sp := &Span{ID: "snap", D: 4, G: 8, Strategy: "pops", Workload: "faulty", Cached: true, start: time.Now()}
	sp.Add(PhaseQueue, 2*time.Millisecond)
	sp.Add(PhaseFaultRepair, 5*time.Millisecond)
	sp.Finish()
	snap := sp.Snapshot()
	if snap.ID != "snap" || snap.D != 4 || snap.G != 8 || snap.Strategy != "pops" ||
		snap.Workload != "faulty" || !snap.Cached {
		t.Errorf("identity not carried: %+v", snap)
	}
	if len(snap.Phases) != 2 {
		t.Fatalf("Phases = %v, want exactly the 2 recorded phases", snap.Phases)
	}
	if snap.Phases[0].Phase != "queue" || snap.Phases[1].Phase != "fault_repair" {
		t.Errorf("phases out of taxonomy order: %v", snap.Phases)
	}
	if snap.PhaseMicros != 7000 {
		t.Errorf("PhaseMicros = %v, want 7000", snap.PhaseMicros)
	}
}

func TestNewRequestID(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q: length %d, want 16", id, len(id))
		}
		for _, c := range id {
			if !strings.ContainsRune("0123456789abcdef", c) {
				t.Fatalf("id %q contains non-hex %q", id, c)
			}
		}
		if seen[id] {
			t.Fatalf("duplicate id %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestPlanTimesEWMA(t *testing.T) {
	pt := NewPlanTimes()
	pt.Observe(4, 4, "pops", false, 100*time.Microsecond)
	if got := pt.EWMA(4, 4, "pops"); got != 100*time.Microsecond {
		t.Errorf("first observation should seed the EWMA: got %v", got)
	}
	pt.Observe(4, 4, "pops", false, 200*time.Microsecond)
	// 0.2*200 + 0.8*100 = 120µs
	if got := pt.EWMA(4, 4, "pops"); got != 120*time.Microsecond {
		t.Errorf("EWMA after second observation = %v, want 120µs", got)
	}
	if got := pt.EWMA(9, 9, "nope"); got != 0 {
		t.Errorf("unknown key EWMA = %v, want 0", got)
	}
}

func TestPlanTimesCacheHitsSeparate(t *testing.T) {
	pt := NewPlanTimes()
	pt.Observe(8, 8, "greedy", false, 50*time.Microsecond)
	pt.Observe(8, 8, "greedy", true, 0) // hit: must not move the EWMA or histogram
	pt.Observe(8, 8, "greedy", true, time.Hour)
	snap := pt.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot = %v, want 1 key", snap)
	}
	st := snap[0]
	if st.Count != 1 || st.CacheHits != 2 {
		t.Errorf("Count=%d CacheHits=%d, want 1/2", st.Count, st.CacheHits)
	}
	if st.EWMAMicros != 50 {
		t.Errorf("EWMAMicros = %v: cache hits must not move the EWMA", st.EWMAMicros)
	}
	if st.SumMicros != 50 {
		t.Errorf("SumMicros = %v: cache hits must not enter the histogram", st.SumMicros)
	}
	var histCount uint64
	for _, b := range st.Buckets {
		histCount += b.Count
	}
	if histCount != 1 {
		t.Errorf("histogram count = %d, want 1 (hits excluded)", histCount)
	}
}

func TestPlanTimesSnapshotSorted(t *testing.T) {
	pt := NewPlanTimes()
	pt.Observe(8, 8, "pops", false, time.Microsecond)
	pt.Observe(4, 4, "pops", false, time.Microsecond)
	pt.Observe(4, 4, "greedy", false, time.Microsecond)
	pt.Observe(4, 8, "pops", false, time.Microsecond)
	snap := pt.Snapshot()
	type key struct {
		d, g int
		s    string
	}
	want := []key{{4, 4, "greedy"}, {4, 4, "pops"}, {4, 8, "pops"}, {8, 8, "pops"}}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d keys, want %d", len(snap), len(want))
	}
	for i, w := range want {
		if snap[i].D != w.d || snap[i].G != w.g || snap[i].Strategy != w.s {
			t.Errorf("snapshot[%d] = (%d,%d,%s), want (%d,%d,%s)",
				i, snap[i].D, snap[i].G, snap[i].Strategy, w.d, w.g, w.s)
		}
	}
}

func TestPlanTimesObserveAllocBudget(t *testing.T) {
	pt := NewPlanTimes()
	pt.Observe(4, 4, "pops", false, time.Microsecond) // create the key
	allocs := testing.AllocsPerRun(1000, func() {
		pt.Observe(4, 4, "pops", false, time.Microsecond)
		pt.Observe(4, 4, "pops", true, 0)
	})
	if allocs != 0 {
		t.Errorf("Observe on an existing key allocated %.1f allocs/op, want 0", allocs)
	}
}

// parsePromText is a minimal exposition-format checker: every non-comment
// line must be `name{labels} value` or `name value`, and histogram bucket
// series must be cumulative with the +Inf bucket equal to _count.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sep := strings.LastIndexByte(line, ' ')
		if sep < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, val := line[:sep], line[sep+1:]
		var v float64
		if _, err := fmt.Sscanf(val, "%g", &v); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if _, dup := samples[name]; dup {
			t.Fatalf("duplicate sample %q", name)
		}
		samples[name] = v
	}
	return samples
}

// expositionSnapshot declares the families TestMetricWriterExposition
// renders: an unlabeled counter, a table of labeled gauges, and a labeled
// histogram row.
type expositionSnapshot struct {
	Requests uint64 `metric:"pops_requests_total,counter" help:"Total requests."`
	Shards   []expositionShard
	Latency  []expositionLatency
}

type expositionShard struct {
	D      int `label:"d"`
	G      int `label:"g"`
	Shards int `metric:"pops_shards,gauge" help:"Live shards."`
}

type expositionLatency struct {
	Strategy  string   `label:"strategy"`
	Buckets   []Bucket `metric:"pops_latency_seconds,histogram" sum:"SumMicros" help:"Request latency."`
	SumMicros float64
}

func TestMetricWriterExposition(t *testing.T) {
	var h Histogram
	h.Observe(time.Microsecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(time.Hour)
	snap := expositionSnapshot{
		Requests: 42,
		Shards:   []expositionShard{{D: 4, G: 8, Shards: 3}},
		Latency:  []expositionLatency{{Strategy: "pops", Buckets: h.Snapshot(), SumMicros: h.SumMicros()}},
	}
	var sb strings.Builder
	if err := WriteMetrics(&sb, &snap); err != nil {
		t.Fatalf("writer error: %v", err)
	}

	text := sb.String()
	for _, want := range []string{
		"# HELP pops_requests_total Total requests.",
		"# TYPE pops_requests_total counter",
		"# TYPE pops_shards gauge",
		"# TYPE pops_latency_seconds histogram",
		`pops_shards{d="4",g="8"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in output:\n%s", want, text)
		}
	}
	samples := parsePromText(t, text)

	// Bucket counts must be cumulative and monotone, with +Inf == _count.
	var prev float64
	for i := 0; i < BucketCount-1; i++ {
		le := float64(uint64(1)<<i) / 1e6
		key := fmt.Sprintf(`pops_latency_seconds_bucket{strategy="pops",le="%s"}`,
			formatFloat(le))
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %q\n%s", key, text)
		}
		if v < prev {
			t.Errorf("bucket le=%g not cumulative: %g < %g", le, v, prev)
		}
		prev = v
	}
	inf := samples[`pops_latency_seconds_bucket{strategy="pops",le="+Inf"}`]
	count := samples[`pops_latency_seconds_count{strategy="pops"}`]
	if inf != 3 || count != 3 {
		t.Errorf("+Inf bucket = %g, _count = %g, want both 3", inf, count)
	}
	sum := samples[`pops_latency_seconds_sum{strategy="pops"}`]
	if math.Abs(sum-h.Sum().Seconds()) > 1e-9 {
		t.Errorf("_sum = %g, want %g", sum, h.Sum().Seconds())
	}
}

func TestLabelsEscaping(t *testing.T) {
	got := labelList("backend", `http://x:1/"quoted"\path`+"\n")
	want := `backend="http://x:1/\"quoted\"\\path\n"`
	if got != want {
		t.Errorf("labelList = %s, want %s", got, want)
	}
}

func TestRegistryServeHTTP(t *testing.T) {
	reg := Registry(func() any {
		return struct {
			N uint64 `metric:"pops_test_total,counter" help:"A test counter."`
		}{1}
	})
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, PromContentType)
	}
	if !strings.Contains(rec.Body.String(), "pops_test_total 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Errorf("POST /metrics = %d, want 405", rec.Code)
	}
}
