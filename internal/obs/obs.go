// Package obs is the observability substrate of the serving stack: a
// zero-alloc-on-hot-path phase tracer, request-ID generation, a lock-free
// slowest-requests ring buffer, per-(d, g, strategy) plan-time statistics,
// and the tag-declared metric schema (WriteMetrics renders a snapshot as
// Prometheus text, Merge folds snapshots into a fleet aggregate) — the
// measurement layer behind popsserved's and popsproxy's GET /metrics,
// GET /debug/slow, and GET /stats.
//
// The unit of tracing is the Span: one request's identity (request ID,
// shape, strategy, workload) plus a fixed-size table of per-phase durations.
// Spans are carried through context.Context (ContextWithSpan /
// SpanFromContext) so the planning layers can attribute time to phases
// without new parameters on every call; every Span method is nil-safe, so
// untraced paths pay one nil check and nothing else. Recording a phase
// performs no allocation and takes no lock — the budget is pinned by
// TestSpanAllocBudget under make alloc-guard.
package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// Phase is one stage of a request's lifecycle. The taxonomy is fixed and
// shared by popsserved and popsproxy, so phase breakdowns from both sides of
// a proxied request line up under one request ID.
type Phase uint8

const (
	// PhaseQueue is the admission-queue wait: from admission until the
	// micro-batch holding the request was flushed onto the planner.
	PhaseQueue Phase = iota
	// PhaseCache is the fingerprint plan-cache lookup (and, on a miss, the
	// memoization of the freshly planned result).
	PhaseCache
	// PhaseFactorize is planning proper: demand-graph build, balanced edge
	// coloring, and schedule assembly.
	PhaseFactorize
	// PhaseFaultRepair is the fault-plan repair pass of faulty-permutation
	// workloads (slack moves, Kempe recoloring, overflow rounds).
	PhaseFaultRepair
	// PhaseVerify is the simulator replay of a finished schedule under
	// WithVerify.
	PhaseVerify
	// PhaseForward is the proxy-side backend round trip (popsproxy only).
	PhaseForward
	// PhaseEncode is response encoding and flushing on the wire.
	PhaseEncode

	// NumPhases sizes per-phase tables.
	NumPhases = int(PhaseEncode) + 1
)

var phaseNames = [NumPhases]string{
	"queue", "cache", "factorize", "fault_repair", "verify", "forward", "encode",
}

// String returns the phase's wire name ("queue", "cache", ...).
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Span is one request's trace: identity plus per-phase durations. A Span is
// owned by one request and written from at most one goroutine at a time
// (hand-offs between the admission, planning, and encoding goroutines are
// ordered by the channels that carry the request). All methods are nil-safe:
// a nil *Span records nothing, so untraced call paths need no branching at
// the call sites.
type Span struct {
	ID       string // request ID (X-Request-Id)
	Backend  string // backend identity a proxy placed the request on
	D, G     int    // POPS shape
	Strategy string // resolved routing strategy
	Workload string // workload kind tag ("" = permutation)
	Cached   bool   // answered from the fingerprint plan cache

	start  time.Time
	mark   time.Time
	cur    Phase
	active bool
	total  time.Duration
	phase  [NumPhases]time.Duration
}

// Begin opens phase p, implicitly ending any phase still open. Phases do not
// nest: the taxonomy is a partition of the request's wall clock.
func (sp *Span) Begin(p Phase) {
	if sp == nil {
		return
	}
	if sp.active {
		sp.End()
	}
	sp.cur = p
	sp.active = true
	sp.mark = time.Now()
}

// End closes the currently open phase, accumulating its elapsed time. A
// no-op when no phase is open.
func (sp *Span) End() {
	if sp == nil || !sp.active {
		return
	}
	sp.phase[sp.cur] += time.Since(sp.mark)
	sp.active = false
}

// Add accumulates d into phase p directly, for callers that measured the
// interval themselves.
func (sp *Span) Add(p Phase, d time.Duration) {
	if sp == nil || d <= 0 {
		return
	}
	sp.phase[p] += d
}

// Finish closes any open phase and fixes the span's total latency. It is
// idempotent in the sense that the total is measured from the span's start;
// call it once, when the request is done.
func (sp *Span) Finish() time.Duration {
	if sp == nil {
		return 0
	}
	sp.End()
	sp.total = time.Since(sp.start)
	return sp.total
}

// Phase returns the accumulated duration of phase p.
func (sp *Span) Phase(p Phase) time.Duration {
	if sp == nil {
		return 0
	}
	return sp.phase[p]
}

// PhaseTotal returns the sum of all phase durations — the traced fraction of
// Total. The acceptance gap between the two is what the tracer does not see
// (request decode, channel hand-offs).
func (sp *Span) PhaseTotal() time.Duration {
	if sp == nil {
		return 0
	}
	var sum time.Duration
	for _, d := range sp.phase {
		sum += d
	}
	return sum
}

func (sp *Span) reset(id string, d, g int) {
	*sp = Span{ID: id, D: d, G: g, start: time.Now()}
}

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sp, for the planning layers to
// attribute phase time to. A nil span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil. The nil result
// composes with the nil-safe Span methods: callers record unconditionally.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// Tracer owns a process's tracing state: a span pool (so steady-state
// request tracing allocates nothing), the slowest-requests ring, and the
// per-(d, g, strategy) plan-time table.
type Tracer struct {
	pool sync.Pool
	Slow *SlowRing
	Plan *PlanTimes
}

// NewTracer builds a Tracer whose slow ring keeps the slowest slowCap
// requests (slowCap <= 0 selects 64).
func NewTracer(slowCap int) *Tracer {
	if slowCap <= 0 {
		slowCap = 64
	}
	t := &Tracer{Slow: NewSlowRing(slowCap), Plan: NewPlanTimes()}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Start checks a span out of the pool for one request, stamped with its ID
// and shape.
func (t *Tracer) Start(id string, d, g int) *Span {
	sp := t.pool.Get().(*Span)
	sp.reset(id, d, g)
	return sp
}

// Finish completes sp, offers it to the slow ring, returns it to the pool,
// and reports the request's total latency. The caller must not touch sp
// afterwards.
func (t *Tracer) Finish(sp *Span) time.Duration {
	total := sp.Finish()
	t.Slow.Record(sp)
	t.pool.Put(sp)
	return total
}

// Abandon releases a span whose request failed before its result arrived.
// Unlike Finish it must not touch the span's phase state or recycle it: an
// in-flight worker the request stopped waiting for (a cancelled wait on a
// queued micro-batch entry) may still be recording phases. The span is
// leaked to the garbage collector, which the worker's late writes land in
// harmlessly; only the immutable start time is read for the elapsed total.
func (t *Tracer) Abandon(sp *Span) time.Duration {
	if sp == nil {
		return 0
	}
	return time.Since(sp.start)
}

// reqIDSeed mixes a per-process random seed into the request-ID sequence so
// IDs from different nodes do not collide.
var reqIDSeed = func() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}()

var reqIDSeq atomic.Uint64

// NewRequestID returns a 16-hex-character request ID, unique within the
// process and collision-resistant across nodes (a splitmix64 of a random
// per-process seed and an atomic sequence). It is what the servers assign
// when the client did not supply an X-Request-Id of its own.
func NewRequestID() string {
	x := reqIDSeed + reqIDSeq.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	const hex = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hex[x&0xf]
		x >>= 4
	}
	return string(buf[:])
}
