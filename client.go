package pops

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pops/internal/backoff"
	"pops/internal/wire"
	"pops/internal/wirebin"
)

// The JSON wire schema of the popsserved routing service, shared with
// internal/service. ServiceClient speaks it; callers embedding pops into
// their own services can reuse the types directly.
type (
	// ServiceRouteRequest is the body of POST /route.
	ServiceRouteRequest = wire.RouteRequest
	// ServicePlan is one planned permutation of a route response. Either
	// its Error field is set or its plan fields are.
	ServicePlan = wire.PlanResult
	// ServiceRouteResponse is the body answering POST /route.
	ServiceRouteResponse = wire.RouteResponse
	// ServiceStats is the body answering GET /stats.
	ServiceStats = wire.StatsResponse
	// ServiceStreamMeta opens a POST /route/stream response.
	ServiceStreamMeta = wire.StreamMeta
	// ServiceStreamSlot is one streamed slot fragment.
	ServiceStreamSlot = wire.StreamSlot
	// ServiceStreamDone closes a successful slot stream.
	ServiceStreamDone = wire.StreamDone
)

// ServiceClient is the Go client of a popsserved routing service (see
// cmd/popsserved and internal/service): plans are requested over HTTP/JSON
// instead of computed in-process, so many processes can share one warm
// planner fleet — its shards, micro-batches, and fingerprint plan cache.
// The zero cost of coalescing happens server-side; the client is a thin,
// concurrency-safe HTTP wrapper.
type ServiceClient struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
	codec ServiceCodec

	// binDown is the sticky binary-codec downgrade: set when a CodecAuto
	// request came back 406, so every later request skips the binary Accept
	// instead of renegotiating per call. It is shared (by pointer) across
	// WithRetry/WithCodec copies, so one downgrade covers the whole client.
	binDown *atomic.Bool

	// sleep and jitter are the retry pacing hooks, injectable so tests can
	// pin the backoff schedule; nil selects the real clock and the shared
	// half-to-full jitter.
	sleep  func(context.Context, time.Duration) error
	jitter func(time.Duration) time.Duration
}

// ServiceCodec selects the response codec a ServiceClient negotiates for
// /route and /route/stream. See WithCodec.
type ServiceCodec int

const (
	// CodecAuto (the default) asks for the binary framing with a JSON/NDJSON
	// fallback in the same Accept header, decodes whichever codec the server
	// chose, and downgrades the client permanently on a 406 — old servers
	// and new servers are both spoken to transparently.
	CodecAuto ServiceCodec = iota
	// CodecJSON never asks for binary: requests are byte-identical to the
	// pre-binary client, the debugging escape hatch.
	CodecJSON
	// CodecBinary requires the binary framing: a server answering in any
	// other codec is an error. Use it to pin the wire format in tests.
	CodecBinary
)

// NewServiceClient returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8714"). A nil hc selects http.DefaultClient. The client
// does not retry by default; see WithRetry.
func NewServiceClient(baseURL string, hc *http.Client) *ServiceClient {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &ServiceClient{base: strings.TrimRight(baseURL, "/"), hc: hc, binDown: new(atomic.Bool)}
}

// WithCodec returns a copy of the client pinned to codec. The copy shares
// the original's sticky downgrade state, so a fleet of derived clients
// renegotiates at most once.
func (c *ServiceClient) WithCodec(codec ServiceCodec) *ServiceClient {
	cp := *c
	cp.codec = codec
	return &cp
}

// acceptHeader renders the Accept header for one call ("" sends none —
// the legacy request shape). Streams name NDJSON as the fallback, unary
// calls JSON.
func (c *ServiceClient) acceptHeader(stream bool) string {
	switch {
	case c.codec == CodecJSON, c.codec == CodecAuto && c.binDown.Load():
		return ""
	case c.codec == CodecBinary:
		return wirebin.ContentType
	case stream:
		return wirebin.ContentType + ", application/x-ndjson;q=0.9"
	default:
		return wirebin.ContentType + ", application/json;q=0.9"
	}
}

// errNotAcceptable marks a 406 verdict so the auto codec can downgrade.
var errNotAcceptable = errors.New("server rejected the requested codec")

// RetryPolicy tunes the client's reaction to overload verdicts (HTTP 429,
// or 503 carrying Retry-After): how many times to retry and how to pace.
// Planning is pure — replaying a route request is idempotent — so retrying
// a shed request is always safe; the policy never retries deterministic
// errors, and never retries past the request context's deadline.
type RetryPolicy struct {
	// MaxRetries is how many extra attempts follow a shed first attempt.
	// 0 disables retrying.
	MaxRetries int
	// BaseBackoff is the pause before the first retry, doubled per further
	// attempt and raised to the server's Retry-After hint when that asks
	// for longer. Default 10ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the pause. Default 1s.
	MaxBackoff time.Duration
}

// WithRetry returns a copy of the client that retries overload-shed
// requests under p. The zero policy disables retrying again.
func (c *ServiceClient) WithRetry(p RetryPolicy) *ServiceClient {
	cp := *c
	cp.retry = p
	return &cp
}

// withRetry runs attempt, retrying when it fails with a typed
// *OverloadError: the pause is BaseBackoff doubled per attempt, raised to
// the server's Retry-After hint, capped at MaxBackoff, and jittered into
// [d/2, d] so a shedding server is not hit by synchronized retry waves. A
// request whose context deadline cannot survive the pause is not retried —
// the overload verdict is returned as-is. Deterministic errors never retry.
func (c *ServiceClient) withRetry(ctx context.Context, attempt func() error) error {
	for try := 0; ; try++ {
		err := attempt()
		var oe *OverloadError
		if err == nil || !errors.As(err, &oe) || try >= c.retry.MaxRetries {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		base := c.retry.BaseBackoff
		if base <= 0 {
			base = 10 * time.Millisecond
		}
		max := c.retry.MaxBackoff
		if max <= 0 {
			max = time.Second
		}
		delay := backoff.Delay(base, max, try, oe.RetryAfter)
		if c.jitter != nil {
			delay = c.jitter(delay)
		} else {
			delay = backoff.Jitter(delay)
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= delay {
			return err // the deadline would expire mid-pause
		}
		if err := c.pause(ctx, delay); err != nil {
			return err
		}
	}
}

func (c *ServiceClient) pause(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// OverloadFromResponse reconstructs the typed overload verdict of a shed
// HTTP response: every 429, plus 503s that carry a Retry-After hint (a
// proxy-side limit). A plain 503 — graceful shutdown — is not an overload
// and returns nil. The response body is not touched. ServiceClient applies
// it internally; the cluster proxy uses it to tell a shedding backend from
// a dead one.
func OverloadFromResponse(resp *http.Response) *OverloadError {
	throttled := resp.StatusCode == http.StatusTooManyRequests ||
		(resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "")
	if !throttled {
		return nil
	}
	oe := &OverloadError{
		Tenant: resp.Header.Get(wire.HeaderTenant),
		Queue:  resp.Header.Get(wire.HeaderOverloadQueue),
	}
	if ms := resp.Header.Get(wire.HeaderRetryAfterMs); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			oe.RetryAfter = time.Duration(v) * time.Millisecond
		}
	}
	if oe.RetryAfter == 0 {
		if s := resp.Header.Get("Retry-After"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				oe.RetryAfter = time.Duration(v) * time.Second
			}
		}
	}
	return oe
}

// reqIDCtxKey carries a caller-chosen request ID through a context.
type reqIDCtxKey struct{}

// ContextWithRequestID returns a context that makes ServiceClient calls
// carry id as the X-Request-Id header, so a caller's own correlation ID
// follows the request through popsproxy and popsserved — it is echoed in
// the response header, the response's request_id field, the stream meta
// record, and both servers' GET /debug/slow breakdowns. Without it the
// serving side assigns an ID of its own.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, reqIDCtxKey{}, id)
}

// RequestIDFromContext returns the request ID attached by
// ContextWithRequestID, or "".
func RequestIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(reqIDCtxKey{}).(string)
	return id
}

// Do posts one ServiceRouteRequest and returns the decoded response. It is
// the general form behind Execute and RouteBatch: callers use it to ask for
// full schedules (IncludeSchedule). The service plans Theorem 2 only, so a
// Strategy other than "" or "theorem2" is answered 400.
func (c *ServiceClient) Do(ctx context.Context, req *ServiceRouteRequest) (*ServiceRouteResponse, error) {
	pb, err := marshalBody(req)
	if err != nil {
		return nil, err
	}
	defer pb.release()
	var resp ServiceRouteResponse
	if err := c.post(ctx, "/route", pb, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// bodyPool recycles request marshal buffers: the hot client path re-sends
// structurally similar bodies, so the encode buffer is reused instead of
// reallocated per call.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// pooledBody is one marshaled request body on loan from bodyPool. net/http's
// Transport closes a request body on its own schedule — possibly after
// RoundTrip has returned — so the buffer goes back to the pool only when the
// caller AND every per-attempt reader have released it; anything simpler is
// a use-after-recycle race under retries.
type pooledBody struct {
	buf  *bytes.Buffer
	refs atomic.Int32
}

// marshalBody encodes v into a pooled buffer. The caller holds one reference
// and must call release exactly once.
func marshalBody(v any) (*pooledBody, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		bodyPool.Put(buf)
		return nil, fmt.Errorf("pops: encoding route request: %w", err)
	}
	pb := &pooledBody{buf: buf}
	pb.refs.Store(1)
	return pb, nil
}

func (p *pooledBody) len() int { return p.buf.Len() }

// attach mounts a fresh attempt body on req: a reader over the pooled bytes
// whose Close releases one reference, plus the ContentLength and GetBody
// the transport needs to avoid chunked uploads and to replay redirects.
func (p *pooledBody) attach(req *http.Request) {
	newReader := func() io.ReadCloser {
		p.refs.Add(1)
		r := &pooledBodyReader{pb: p}
		r.r.Reset(p.buf.Bytes())
		return r
	}
	req.Body = newReader()
	req.ContentLength = int64(p.buf.Len())
	req.GetBody = func() (io.ReadCloser, error) { return newReader(), nil }
}

func (p *pooledBody) release() {
	if p.refs.Add(-1) == 0 {
		buf := p.buf
		p.buf = nil
		bodyPool.Put(buf)
	}
}

type pooledBodyReader struct {
	pb     *pooledBody
	r      bytes.Reader
	closed bool
}

func (r *pooledBodyReader) Read(p []byte) (int, error) { return r.r.Read(p) }

func (r *pooledBodyReader) Close() error {
	if !r.closed {
		r.closed = true
		r.pb.release()
	}
	return nil
}

// Execute plans one workload on POPS(d, g) — the wire form of
// Planner.Execute. Permutation workloads go through the service's
// micro-batching queue; h-relation, all-to-all and one-to-all workloads are
// executed directly on the shard's planner, sharing its pooled arenas and
// plan cache. A workload planning failure is returned as an error.
func (c *ServiceClient) Execute(ctx context.Context, d, g int, w Workload) (*ServicePlan, error) {
	req, err := workloadRouteRequest(d, g, w)
	if err != nil {
		return nil, err
	}
	return c.doOne(ctx, req)
}

// doOne posts a single-plan request and unwraps its one result.
func (c *ServiceClient) doOne(ctx context.Context, req *ServiceRouteRequest) (*ServicePlan, error) {
	resp, err := c.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	if len(resp.Plans) != 1 {
		return nil, fmt.Errorf("pops: service returned %d plans for one workload", len(resp.Plans))
	}
	plan := &resp.Plans[0]
	if plan.Error != "" {
		if u := plan.Unroutable; u != nil {
			// Reconstruct the typed verdict, so errors.As works across the
			// wire exactly as it does in-process.
			nw, err := NewNetwork(resp.D, resp.G)
			if err == nil {
				return nil, &UnroutableError{
					Net: nw, Packet: u.Packet, SrcGroup: u.SrcGroup, DstGroup: u.DstGroup,
					SeveredSrc: u.SeveredSrc, SeveredDst: u.SeveredDst,
				}
			}
		}
		return nil, fmt.Errorf("pops: service: %s", plan.Error)
	}
	return plan, nil
}

// wireFaults converts a FaultSet to its wire form; nil for an empty set, so
// fault-free requests serialize without the field.
func wireFaults(fs FaultSet) *wire.FaultSet {
	if fs.Empty() {
		return nil
	}
	out := &wire.FaultSet{Groups: fs.Groups}
	for _, c := range fs.Couplers {
		out.Couplers = append(out.Couplers, wire.Coupler{B: c.B, A: c.A})
	}
	return out
}

// workloadRouteRequest serializes a Workload into the tagged wire schema.
func workloadRouteRequest(d, g int, w Workload) (*ServiceRouteRequest, error) {
	switch w := w.(type) {
	case nil:
		return nil, ErrNilWorkload
	case permutationWorkload:
		return &ServiceRouteRequest{D: d, G: g, Pi: w.pi}, nil
	case hrelationWorkload:
		reqs := make([]wire.Request, len(w.reqs))
		for i, r := range w.reqs {
			reqs[i] = wire.Request{Src: r.Src, Dst: r.Dst}
		}
		return &ServiceRouteRequest{D: d, G: g, Workload: WorkloadHRelation, Requests: reqs}, nil
	case allToAllWorkload:
		return &ServiceRouteRequest{D: d, G: g, Workload: WorkloadAllToAll}, nil
	case oneToAllWorkload:
		return &ServiceRouteRequest{D: d, G: g, Workload: WorkloadOneToAll, Speaker: w.speaker}, nil
	case faultyWorkload:
		return &ServiceRouteRequest{D: d, G: g, Workload: WorkloadFaultyPermutation, Pi: w.pi, Faults: wireFaults(w.faults)}, nil
	default:
		return nil, fmt.Errorf("pops: unknown workload type %T", w)
	}
}

// RouteBatch plans a batch of permutations on POPS(d, g) with Theorem 2,
// returning one ServicePlan per permutation in input order.
// Per-permutation failures stay in the corresponding ServicePlan.Error,
// matching the Planner.RouteBatch contract.
func (c *ServiceClient) RouteBatch(ctx context.Context, d, g int, pis [][]int) ([]ServicePlan, error) {
	resp, err := c.Do(ctx, &ServiceRouteRequest{D: d, G: g, Pis: pis})
	if err != nil {
		return nil, err
	}
	if len(resp.Plans) != len(pis) {
		return nil, fmt.Errorf("pops: service returned %d plans for %d permutations", len(resp.Plans), len(pis))
	}
	return resp.Plans, nil
}

// ServiceStream is an open POST /route/stream response: slot fragments
// decoded one NDJSON record at a time, while the server is still peeling
// later color classes. Drive it with Next and always Close it — Close
// releases the HTTP connection, and abandoning a stream early tells the
// server to stop planning.
type ServiceStream struct {
	body io.ReadCloser
	// dec decodes NDJSON streams; bdec binary-framed ones. Exactly one is
	// set, decided by the response's Content-Type.
	dec  *json.Decoder
	bdec *wirebin.Decoder
	meta ServiceStreamMeta
	done *ServiceStreamDone
	err  error
}

// ExecuteStream opens a slot stream for any workload — the wire form of
// Planner.ExecuteStream. H-relation (and all-to-all) slots are flushed as
// each König factor of the request multigraph is peeled and routed, so the
// first slots arrive while the server is still factorizing. Cancelling ctx
// hangs up the connection, which cancels the server-side planning context.
func (c *ServiceClient) ExecuteStream(ctx context.Context, d, g int, w Workload) (*ServiceStream, error) {
	req, err := workloadRouteRequest(d, g, w)
	if err != nil {
		return nil, err
	}
	pb, err := marshalBody(req)
	if err != nil {
		return nil, err
	}
	defer pb.release()
	// A stream shed at admission (429 before the meta record) has delivered
	// nothing, so retrying it is as safe as retrying /route. Once the stream
	// is open it is never retried — the caller may have consumed slots.
	var st *ServiceStream
	err = c.withRetry(ctx, func() error {
		var openErr error
		st, openErr = c.openStream(ctx, pb, c.acceptHeader(true))
		if errors.Is(openErr, errNotAcceptable) && c.codec == CodecAuto {
			c.binDown.Store(true)
			st, openErr = c.openStream(ctx, pb, "")
		}
		return openErr
	})
	return st, err
}

func (c *ServiceClient) openStream(ctx context.Context, pb *pooledBody, accept string) (*ServiceStream, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/route/stream", nil)
	if err != nil {
		return nil, err
	}
	pb.attach(httpReq)
	httpReq.Header.Set("Content-Type", "application/json")
	if accept != "" {
		httpReq.Header.Set("Accept", accept)
	}
	c.setCallHeaders(ctx, httpReq)
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("pops: service request /route/stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer drainClose(resp.Body)
		if resp.StatusCode == http.StatusNotAcceptable {
			return nil, fmt.Errorf("pops: service /route/stream: %w", errNotAcceptable)
		}
		if oe := OverloadFromResponse(resp); oe != nil {
			return nil, fmt.Errorf("pops: service /route/stream: %w", oe)
		}
		return nil, fmt.Errorf("pops: service /route/stream: %s", readError(resp))
	}
	if wirebin.IsContentType(resp.Header.Get("Content-Type")) {
		return openBinaryStream(resp)
	}
	if accept == wirebin.ContentType {
		drainClose(resp.Body)
		return nil, fmt.Errorf("pops: service /route/stream answered %q, want %s",
			resp.Header.Get("Content-Type"), wirebin.ContentType)
	}
	st := &ServiceStream{body: resp.Body, dec: json.NewDecoder(resp.Body)}
	var rec wire.StreamRecord
	if err := st.dec.Decode(&rec); err != nil {
		drainClose(resp.Body)
		return nil, fmt.Errorf("pops: decoding stream meta: %w", err)
	}
	if rec.Type != "meta" || rec.Meta == nil {
		drainClose(resp.Body)
		if rec.Type == "error" {
			return nil, fmt.Errorf("pops: service: %s", rec.Error)
		}
		return nil, fmt.Errorf("pops: stream opened with %q record, want meta", rec.Type)
	}
	st.meta = *rec.Meta
	return st, nil
}

// openBinaryStream reads the opening meta frame of a binary-framed stream.
func openBinaryStream(resp *http.Response) (*ServiceStream, error) {
	st := &ServiceStream{body: resp.Body, bdec: wirebin.GetDecoder(resp.Body)}
	typ, payload, err := st.bdec.ReadFrame()
	if err != nil {
		st.releaseDecoder()
		drainClose(resp.Body)
		return nil, fmt.Errorf("pops: decoding stream meta: %w", err)
	}
	switch typ {
	case wirebin.FrameMeta:
		if err := wirebin.DecodeMeta(payload, &st.meta); err != nil {
			st.releaseDecoder()
			drainClose(resp.Body)
			return nil, fmt.Errorf("pops: decoding stream meta: %w", err)
		}
		return st, nil
	case wirebin.FrameError:
		msg, err := wirebin.DecodeError(payload)
		st.releaseDecoder()
		drainClose(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("pops: decoding stream error record: %w", err)
		}
		return nil, fmt.Errorf("pops: service: %s", msg)
	default:
		st.releaseDecoder()
		drainClose(resp.Body)
		return nil, fmt.Errorf("pops: stream opened with frame type %d, want meta", typ)
	}
}

// Meta returns the stream's opening record.
func (s *ServiceStream) Meta() ServiceStreamMeta { return s.meta }

// Next returns the next slot fragment, or (nil, nil) once the stream has
// completed successfully (Done then holds the closing record). A planning
// failure mid-stream or a malformed response is returned as an error.
func (s *ServiceStream) Next() (*ServiceStreamSlot, error) {
	if s.err != nil || s.done != nil {
		return nil, s.err
	}
	if s.bdec != nil {
		return s.nextBinary()
	}
	var rec wire.StreamRecord
	if err := s.dec.Decode(&rec); err != nil {
		s.err = fmt.Errorf("pops: decoding stream record: %w", err)
		return nil, s.err
	}
	switch rec.Type {
	case "slot":
		if rec.Slot == nil {
			s.err = fmt.Errorf("pops: slot record without slot payload")
			return nil, s.err
		}
		return rec.Slot, nil
	case "done":
		s.done = rec.Done
		return nil, nil
	case "error":
		s.err = fmt.Errorf("pops: service: %s", rec.Error)
		return nil, s.err
	default:
		s.err = fmt.Errorf("pops: unexpected stream record %q", rec.Type)
		return nil, s.err
	}
}

// nextBinary is Next over a binary-framed stream. A truncated or corrupt
// frame — a backend dying mid-stream, a relay forwarding garbage — is a
// typed error, never a silently short plan: the done frame is the only
// successful ending.
func (s *ServiceStream) nextBinary() (*ServiceStreamSlot, error) {
	typ, payload, err := s.bdec.ReadFrame()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // EOF before the done frame is truncation
		}
		s.err = fmt.Errorf("pops: decoding stream record: %w", err)
		return nil, s.err
	}
	switch typ {
	case wirebin.FrameSlot:
		// Decoded into a fresh record: callers accumulate fragments across
		// Next calls, so the slices must not alias the decoder's buffer.
		var slot ServiceStreamSlot
		if err := wirebin.DecodeSlot(payload, &slot); err != nil {
			s.err = fmt.Errorf("pops: decoding stream record: %w", err)
			return nil, s.err
		}
		return &slot, nil
	case wirebin.FrameDone:
		var done ServiceStreamDone
		if err := wirebin.DecodeDone(payload, &done); err != nil {
			s.err = fmt.Errorf("pops: decoding stream record: %w", err)
			return nil, s.err
		}
		s.done = &done
		return nil, nil
	case wirebin.FrameError:
		msg, err := wirebin.DecodeError(payload)
		if err != nil {
			s.err = fmt.Errorf("pops: decoding stream error record: %w", err)
			return nil, s.err
		}
		s.err = fmt.Errorf("pops: service: %s", msg)
		return nil, s.err
	default:
		s.err = fmt.Errorf("pops: unexpected stream frame type %d", typ)
		return nil, s.err
	}
}

// releaseDecoder returns the binary decoder to its pool (idempotent).
func (s *ServiceStream) releaseDecoder() {
	if s.bdec != nil {
		wirebin.PutDecoder(s.bdec)
		s.bdec = nil
	}
}

// Done returns the stream's closing record once Next has returned (nil, nil).
func (s *ServiceStream) Done() *ServiceStreamDone { return s.done }

// Close releases the underlying HTTP response. Always call it; closing
// before the done record abandons the stream server-side (the dropped
// connection is the cancellation signal). After a completed stream the
// remaining body (the chunked trailer) is drained first, so the
// keep-alive connection returns to the transport's pool instead of being
// torn down.
func (s *ServiceStream) Close() error {
	s.releaseDecoder()
	if s.done != nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(s.body, 4096))
	}
	return s.body.Close()
}

// Slots returns the Theorem 2 slot count the service will use for every
// permutation on POPS(d, g).
func (c *ServiceClient) Slots(ctx context.Context, d, g int) (int, error) {
	var resp wire.SlotsResponse
	if err := c.get(ctx, fmt.Sprintf("/slots?d=%d&g=%d", d, g), &resp); err != nil {
		return 0, err
	}
	return resp.Slots, nil
}

// Stats snapshots the service's shard, cache, batching, and latency
// counters.
func (c *ServiceClient) Stats(ctx context.Context) (*ServiceStats, error) {
	var resp ServiceStats
	if err := c.get(ctx, "/stats", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz reports service liveness: nil while the service admits requests.
func (c *ServiceClient) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("pops: service health check: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pops: service unhealthy: %s", readError(resp))
	}
	return nil
}

func (c *ServiceClient) post(ctx context.Context, path string, pb *pooledBody, out any) error {
	// The request is rebuilt per attempt — a body reader cannot be rewound
	// once the transport has consumed it.
	return c.withRetry(ctx, func() error {
		attempt := func(accept string) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, nil)
			if err != nil {
				return err
			}
			pb.attach(req)
			req.Header.Set("Content-Type", "application/json")
			if accept != "" {
				req.Header.Set("Accept", accept)
			}
			c.setCallHeaders(ctx, req)
			return c.roundTrip(req, out)
		}
		err := attempt(c.acceptHeader(false))
		if errors.Is(err, errNotAcceptable) && c.codec == CodecAuto {
			// The server refused the binary offer outright: downgrade this
			// client permanently and replay the attempt as plain JSON.
			c.binDown.Store(true)
			return attempt("")
		}
		return err
	})
}

// setCallHeaders attaches the per-call context headers: the caller's
// correlation ID, the tenant tag for weighted-fair admission, and the
// absolute deadline, so a server can shed a queued request the moment it
// becomes unservable instead of planning for a caller that already hung up.
func (c *ServiceClient) setCallHeaders(ctx context.Context, req *http.Request) {
	if id := RequestIDFromContext(ctx); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	if t := TenantFromContext(ctx); t != "" {
		req.Header.Set(wire.HeaderTenant, t)
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(wire.HeaderDeadline, wire.EncodeDeadline(dl))
	}
}

func (c *ServiceClient) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.roundTrip(req, out)
}

func (c *ServiceClient) roundTrip(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("pops: service request %s: %w", req.URL.Path, err)
	}
	// Every exit drains the remaining body (bounded) before closing: a body
	// closed with bytes left tears the keep-alive connection down, so error
	// paths — non-2xx answers, truncated JSON — would otherwise leak pooled
	// connections exactly when a failover layer is retrying hardest.
	defer drainClose(resp.Body)
	if resp.StatusCode == http.StatusNotAcceptable {
		return fmt.Errorf("pops: service %s: %w", req.URL.Path, errNotAcceptable)
	}
	if resp.StatusCode != http.StatusOK {
		if oe := OverloadFromResponse(resp); oe != nil {
			return fmt.Errorf("pops: service %s: %w", req.URL.Path, oe)
		}
		return fmt.Errorf("pops: service %s: %s", req.URL.Path, readError(resp))
	}
	if wirebin.IsContentType(resp.Header.Get("Content-Type")) {
		rr, ok := out.(*ServiceRouteResponse)
		if !ok {
			return fmt.Errorf("pops: service %s answered %s unexpectedly", req.URL.Path, wirebin.ContentType)
		}
		dec := wirebin.GetDecoder(resp.Body)
		defer wirebin.PutDecoder(dec)
		typ, payload, err := dec.ReadFrame()
		if err == nil && typ != wirebin.FrameResponse {
			err = fmt.Errorf("frame type %d, want response", typ)
		}
		if err == nil {
			err = wirebin.DecodeResponse(payload, rr)
		}
		if err != nil {
			return fmt.Errorf("pops: decoding service %s response: %w", req.URL.Path, err)
		}
		return nil
	}
	if req.Header.Get("Accept") == wirebin.ContentType {
		// CodecBinary pins the wire format; a JSON answer means the server
		// ignored the only acceptable codec.
		return fmt.Errorf("pops: service %s answered %q, want %s",
			req.URL.Path, resp.Header.Get("Content-Type"), wirebin.ContentType)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("pops: decoding service %s response: %w", req.URL.Path, err)
	}
	return nil
}

// drainClose discards what is left of a response body (bounded, so a huge
// error page cannot stall the caller) and closes it, returning the
// keep-alive connection to the transport's pool instead of tearing it down.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	body.Close()
}

// readError summarizes a non-200 response: status plus the first line of the
// body, which the service fills with the request-level error text.
func readError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		return resp.Status
	}
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return fmt.Sprintf("%s: %s", resp.Status, msg)
}
