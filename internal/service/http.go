package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"pops"
	"pops/internal/obs"
	"pops/internal/wire"
	"pops/internal/wirebin"
)

// maxRequestBody bounds /route bodies: the largest sensible request is a
// batch of large permutations, far under this.
const maxRequestBody = 64 << 20

// Handler returns the service's HTTP surface:
//
//	POST /route         plan one permutation ("pi") or a batch ("pis")
//	POST /route/stream  stream one permutation's slots as NDJSON chunks
//	GET  /slots         Theorem 2 slot count for ?d=&g=
//	GET  /stats         shard, cache, batching, latency and TTFS counters
//	GET  /metrics       Prometheus text exposition of the same counters
//	GET  /debug/slow    the slowest traced requests with phase breakdowns
//	GET  /healthz       liveness ("ok" until Close starts)
//
// Requests and responses use the JSON schema of internal/wire. Malformed
// requests (bad JSON, invalid shape, a strategy other than "theorem2") get
// 400; requests admitted after Close starts get 503; per-permutation
// planning failures travel as the error field of their PlanResult under a
// 200 (or as an "error" stream record once a stream has opened).
//
// Every request is assigned a request ID — the client's X-Request-Id header
// when present, a generated one otherwise — echoed in the X-Request-Id
// response header, the request_id field of /route responses, and the meta
// record of /route/stream.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /route", s.handleRoute)
	mux.HandleFunc("POST /route/stream", s.handleRouteStream)
	mux.HandleFunc("GET /slots", s.handleSlots)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.metrics)
	mux.HandleFunc("GET /debug/slow", s.handleSlow)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// requestID resolves the request's ID: the caller's X-Request-Id if it sent
// one (a proxy hop, or a client correlating its own logs), else a fresh one.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		return id
	}
	return obs.NewRequestID()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection is the only failure mode left here
}

// decodeRouteRequest reads a /route or /route/stream body in whichever
// request codec the caller sent: a binary FrameRequest when Content-Type is
// application/x-pops-bin, JSON otherwise. It writes the 400 itself on
// malformed input.
func decodeRouteRequest(w http.ResponseWriter, r *http.Request, req *wire.RouteRequest) bool {
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	if wirebin.IsContentType(r.Header.Get("Content-Type")) {
		dec := wirebin.GetDecoder(body)
		defer wirebin.PutDecoder(dec)
		typ, payload, err := dec.ReadFrame()
		if err == nil && typ != wirebin.FrameRequest {
			err = fmt.Errorf("frame type %d, want request", typ)
		}
		if err == nil {
			err = wirebin.DecodeRequest(payload, req)
		}
		if err != nil {
			http.Error(w, "service: decoding request: "+err.Error(), http.StatusBadRequest)
			return false
		}
		return true
	}
	if err := json.NewDecoder(body).Decode(req); err != nil {
		http.Error(w, "service: decoding request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// respondRoute writes a /route response in the negotiated codec: binary when
// the caller's Accept names application/x-pops-bin, JSON otherwise (unknown
// and empty Accept values change nothing). It also feeds the per-codec
// request ledger.
func (s *Service) respondRoute(w http.ResponseWriter, r *http.Request, resp *wire.RouteResponse) {
	if !wirebin.Accepts(r.Header.Get("Accept")) {
		s.codecJSON.requests.Add(1)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.codecBinary.requests.Add(1)
	enc := wirebin.GetEncoder()
	defer wirebin.PutEncoder(enc)
	frame := enc.AppendResponse(resp)
	w.Header().Set("Content-Type", wirebin.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
}

// requestStatus maps a request-level error to its HTTP status.
func requestStatus(err error) int {
	var oe *pops.OverloadError
	if errors.As(err, &oe) {
		return http.StatusTooManyRequests
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writeError maps a request-level error onto the wire. Overload verdicts
// answer 429 with the standard Retry-After (whole seconds, rounded up), a
// millisecond-precision X-Retry-After-Ms, and the queue/tenant refinement
// headers clients use to reconstruct the typed *pops.OverloadError. An
// expired propagated deadline answers 504; shutdown stays 503 and malformed
// requests 400.
func writeError(w http.ResponseWriter, err error) {
	var oe *pops.OverloadError
	if errors.As(err, &oe) {
		if oe.RetryAfter > 0 {
			secs := (oe.RetryAfter + time.Second - 1) / time.Second
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
			ms := (oe.RetryAfter + time.Millisecond - 1) / time.Millisecond
			w.Header().Set(wire.HeaderRetryAfterMs, strconv.FormatInt(int64(ms), 10))
		}
		if oe.Queue != "" {
			w.Header().Set(wire.HeaderOverloadQueue, oe.Queue)
		}
		if oe.Tenant != "" {
			w.Header().Set(wire.HeaderTenant, oe.Tenant)
		}
	}
	http.Error(w, err.Error(), requestStatus(err))
}

// requestContext applies a route request's overload-control metadata to its
// context: the admission tenant (the body field wins over the X-Tenant
// header) and the propagated absolute deadline (X-Deadline). A deadline
// that has already passed is shed here — 504 without consuming a queue
// slot. The returned cancel must run when the handler finishes; ok reports
// whether the request may proceed (the error response is already written
// otherwise).
func (s *Service) requestContext(w http.ResponseWriter, r *http.Request, req *wire.RouteRequest) (ctx context.Context, cancel context.CancelFunc, ok bool) {
	ctx = r.Context()
	tenant := req.Tenant
	if tenant == "" {
		tenant = r.Header.Get(wire.HeaderTenant)
	}
	ctx = pops.ContextWithTenant(ctx, tenant)
	cancel = func() {}
	if h := r.Header.Get(wire.HeaderDeadline); h != "" {
		dl, err := wire.ParseDeadline(h)
		if err != nil {
			http.Error(w, "service: "+err.Error(), http.StatusBadRequest)
			return nil, nil, false
		}
		if !dl.After(time.Now()) {
			s.deadlineSheds.Add(1)
			s.tenant(tenant).deadlineShed.Add(1)
			http.Error(w, "service: "+context.DeadlineExceeded.Error(), http.StatusGatewayTimeout)
			return nil, nil, false
		}
		ctx, cancel = context.WithDeadline(ctx, dl)
	}
	return ctx, cancel, true
}

// workloadFromRequest resolves a tagged route request to its pops.Workload.
// It returns (nil, nil) for the permutation kinds, which the handlers serve
// through the micro-batching queue instead, and an error for a request the
// service does not plan: a strategy other than Theorem 2, or a malformed
// combination (wrong payload for the kind). It is the one strategy check of
// /route and /route/stream, and runs before any shard is created or counted.
func workloadFromRequest(req *wire.RouteRequest) (pops.Workload, error) {
	if err := checkStrategy(req.Strategy); err != nil {
		return nil, err
	}
	// A fault set on any other kind would be silently ignored — reject it so
	// the caller never believes a plan routed around faults it never saw.
	if req.Faults != nil && req.Workload != wire.WorkloadFaultyPermutation {
		return nil, fmt.Errorf("service: faults apply to the faulty-permutation workload only")
	}
	switch req.Workload {
	case "", wire.WorkloadPermutation:
		return nil, nil
	case wire.WorkloadHRelation:
		if len(req.Pi) > 0 || len(req.Pis) > 0 {
			return nil, fmt.Errorf("service: hrelation workload takes requests, not pi/pis")
		}
		reqs := make([]pops.Request, len(req.Requests))
		for i, r := range req.Requests {
			reqs[i] = pops.Request{Src: r.Src, Dst: r.Dst}
		}
		return pops.HRelation(reqs), nil
	case wire.WorkloadAllToAll:
		if len(req.Pi) > 0 || len(req.Pis) > 0 || len(req.Requests) > 0 {
			return nil, fmt.Errorf("service: all-to-all workload takes no payload")
		}
		return pops.AllToAll(), nil
	case wire.WorkloadOneToAll:
		if len(req.Pi) > 0 || len(req.Pis) > 0 || len(req.Requests) > 0 {
			return nil, fmt.Errorf("service: one-to-all workload takes a speaker, not pi/requests")
		}
		return pops.OneToAll(req.Speaker), nil
	case wire.WorkloadFaultyPermutation:
		if len(req.Pis) > 0 || len(req.Requests) > 0 {
			return nil, fmt.Errorf("service: faulty-permutation workload takes pi and faults, not pis/requests")
		}
		if len(req.Pi) == 0 {
			return nil, fmt.Errorf("service: faulty-permutation workload takes a permutation (pi)")
		}
		var fs pops.FaultSet
		if req.Faults != nil {
			fs.Couplers = make([]pops.Coupler, len(req.Faults.Couplers))
			for i, c := range req.Faults.Couplers {
				fs.Couplers[i] = pops.Coupler{B: c.B, A: c.A}
			}
			fs.Groups = req.Faults.Groups
		}
		return pops.FaultyPermutation(req.Pi, fs), nil
	default:
		return nil, fmt.Errorf("service: unknown workload %q", req.Workload)
	}
}

func (s *Service) handleRoute(w http.ResponseWriter, r *http.Request) {
	var req wire.RouteRequest
	if !decodeRouteRequest(w, r, &req) {
		return
	}
	wl, err := workloadFromRequest(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id := requestID(r)
	w.Header().Set("X-Request-Id", id)
	ctx, cancel, ok := s.requestContext(w, r, &req)
	if !ok {
		return
	}
	defer cancel()
	resp := wire.RouteResponse{D: req.D, G: req.G, RequestID: id}
	if wl != nil {
		sp := s.tracer.Start(id, req.D, req.G)
		sp.Workload = wl.Kind()
		res, err := s.Execute(obs.ContextWithSpan(ctx, sp), req.D, req.G, wl)
		if err != nil {
			writeError(w, err)
			s.tracer.Abandon(sp)
			return
		}
		if res.Plan != nil {
			sp.Strategy = res.Plan.Strategy
		}
		sp.Cached = res.Cached
		resp.Plans = []wire.PlanResult{workloadResult(wl, res, req.IncludeSchedule)}
		sp.Begin(obs.PhaseEncode)
		s.respondRoute(w, r, &resp)
		// The span total — not a separate clock — is the latency histogram
		// observation, so the phase breakdown and the histogram describe the
		// same measured interval (pinned by the service tests).
		s.latency.Observe(s.tracer.Finish(sp))
		return
	}

	single := len(req.Pi) > 0
	batch := len(req.Pis) > 0
	if single == batch {
		http.Error(w, "service: exactly one of pi and pis must be set", http.StatusBadRequest)
		return
	}
	if single {
		sp := s.tracer.Start(id, req.D, req.G)
		res, err := s.Route(obs.ContextWithSpan(ctx, sp), req.D, req.G, req.Pi, "")
		if err != nil {
			writeError(w, err)
			// The micro-batch entry may still be in flight and recording
			// onto the span — never recycle it from here.
			s.tracer.Abandon(sp)
			return
		}
		if res.Plan != nil {
			sp.Strategy = res.Plan.Strategy
		}
		sp.Cached = res.Cached
		resp.Plans = []wire.PlanResult{planResult(req.Pi, res, req.IncludeSchedule)}
		sp.Begin(obs.PhaseEncode)
		s.respondRoute(w, r, &resp)
		s.latency.Observe(s.tracer.Finish(sp))
		return
	}
	// Batch requests share one response but plan as independent queue
	// entries; a single span would double-charge the concurrent waits, so
	// batches go untraced and observe the latency histogram in RouteMany.
	results, err := s.RouteMany(ctx, req.D, req.G, req.Pis)
	if err != nil {
		writeError(w, err)
		return
	}
	resp.Plans = make([]wire.PlanResult, len(results))
	for i, res := range results {
		resp.Plans[i] = planResult(req.Pis[i], res, req.IncludeSchedule)
	}
	s.respondRoute(w, r, &resp)
}

// handleSlow serves GET /debug/slow: the slowest traced requests, worst
// first, with per-phase timing breakdowns. ?n= bounds the list (default all
// retained).
func (s *Service) handleSlow(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("n"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, "service: /debug/slow?n= takes a non-negative integer", http.StatusBadRequest)
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, wire.SlowResponse{
		Server:   s.cfg.Name,
		Requests: s.tracer.Slow.Snapshot(limit),
	})
}

// handleRouteStream serves POST /route/stream: the slot schedule of one
// permutation as newline-delimited JSON (wire.StreamRecord), each record
// flushed as its own chunk so early slots reach the caller while later
// color classes are still being peeled. Admission errors are plain HTTP
// statuses; once the meta record has been written, failures travel as an
// "error" record.
func (s *Service) handleRouteStream(w http.ResponseWriter, r *http.Request) {
	var req wire.RouteRequest
	if !decodeRouteRequest(w, r, &req) {
		return
	}
	wl, err := workloadFromRequest(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The request context is threaded all the way into the planner stream:
	// a hung-up client cancels it, and the stream's next factor check fails
	// with ctx.Err() — factor production stops for a plan nobody is
	// reading, and the worker planner returns to the pool on Close. The
	// trace span rides the same context; stream planning is synchronous on
	// this goroutine, so the span can be pooled when the handler returns.
	id := requestID(r)
	w.Header().Set("X-Request-Id", id)
	reqCtx, cancel, ok := s.requestContext(w, r, &req)
	if !ok {
		return
	}
	defer cancel()
	sp := s.tracer.Start(id, req.D, req.G)
	// Streams observe the latency histogram at exhaustion (Stream.finish),
	// a planning-side signal that excludes client read speed — so the span
	// total feeds only the slow ring here, never the histogram.
	defer s.tracer.Finish(sp)
	ctx := obs.ContextWithSpan(reqCtx, sp)
	if wl != nil {
		sp.Workload = wl.Kind()
	} else {
		if len(req.Pis) > 0 || len(req.Pi) == 0 {
			http.Error(w, "service: /route/stream takes exactly one permutation (pi)", http.StatusBadRequest)
			return
		}
		wl = pops.Permutation(req.Pi)
	}
	st, err := s.ExecuteStream(ctx, req.D, req.G, wl)
	if err != nil {
		writeError(w, err)
		return
	}
	defer st.Close()

	flusher, _ := w.(http.Flusher)
	// flush pushes one encoded record (an NDJSON line or a binary frame) out
	// as its own chunk, then hands the processor to waiting readers: without
	// the Gosched, a CPU-bound factorization loop on a loaded (or
	// single-core) runtime can emit the entire plan before the connection
	// goroutine ever runs, silently turning the stream back into a batch.
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
		runtime.Gosched()
	}
	var write func(rec wire.StreamRecord) bool
	if wirebin.Accepts(r.Header.Get("Accept")) {
		s.codecBinary.streams.Add(1)
		w.Header().Set("Content-Type", wirebin.ContentType)
		enc := wirebin.GetEncoder()
		defer wirebin.PutEncoder(enc)
		write = func(rec wire.StreamRecord) bool {
			sp.Begin(obs.PhaseEncode)
			defer sp.End()
			var frame []byte
			switch rec.Type {
			case "meta":
				frame = enc.AppendMeta(rec.Meta)
			case "slot":
				frame = enc.AppendSlot(rec.Slot)
			case "done":
				frame = enc.AppendDone(rec.Done)
			default:
				frame = enc.AppendError(rec.Error)
			}
			if _, err := w.Write(frame); err != nil {
				return false // client went away; Close releases the worker
			}
			s.codecBinary.streamedBytes.Add(uint64(len(frame)))
			flush()
			return true
		}
	} else {
		s.codecNDJSON.streams.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		cw := &countingWriter{w: w}
		defer func() { s.codecNDJSON.streamedBytes.Add(cw.n) }()
		enc := json.NewEncoder(cw)
		write = func(rec wire.StreamRecord) bool {
			sp.Begin(obs.PhaseEncode)
			defer sp.End()
			if err := enc.Encode(rec); err != nil {
				return false // client went away; Close releases the worker
			}
			flush()
			return true
		}
	}
	meta := st.Meta()
	meta.RequestID = id
	sp.Strategy = meta.Strategy
	sp.Cached = meta.Cached
	if !write(wire.StreamRecord{Type: "meta", Meta: &meta}) {
		return
	}
	for {
		slot, ok := st.Next()
		if !ok {
			break
		}
		if !write(wire.StreamRecord{Type: "slot", Slot: &slot}) {
			return
		}
	}
	if err := st.Err(); err != nil {
		if ctx.Err() != nil {
			return // cancelled by the client: nobody is reading error records
		}
		write(wire.StreamRecord{Type: "error", Error: err.Error()})
		return
	}
	write(wire.StreamRecord{Type: "done", Done: &wire.StreamDone{Slots: meta.Slots, Fragments: meta.Fragments}})
}

// countingWriter tallies bytes written through it, so the NDJSON stream path
// can feed the per-codec streamed-bytes ledger without an extra copy.
type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// planResult converts one permutation planning outcome to its wire form.
func planResult(pi []int, res Result, includeSchedule bool) wire.PlanResult {
	if res.Err != nil {
		return wire.PlanResult{Error: res.Err.Error()}
	}
	pr := wire.PlanResult{
		Strategy:    res.Plan.Strategy,
		Slots:       res.Plan.SlotCount(),
		Rounds:      res.Plan.Rounds,
		Fingerprint: fmt.Sprintf("%016x", pops.PermutationFingerprint(pi)),
		Cached:      res.Cached,
	}
	if includeSchedule {
		pr.Schedule = res.Plan.Schedule()
	}
	return pr
}

// workloadResult converts one non-permutation workload outcome to its wire
// form, tagging the workload kind and the relation degree.
func workloadResult(w pops.Workload, res Result, includeSchedule bool) wire.PlanResult {
	if res.Err != nil {
		pr := wire.PlanResult{Workload: w.Kind(), Error: res.Err.Error()}
		var ue *pops.UnroutableError
		if errors.As(res.Err, &ue) {
			pr.Unroutable = &wire.UnroutableInfo{
				Packet:     ue.Packet,
				SrcGroup:   ue.SrcGroup,
				DstGroup:   ue.DstGroup,
				SeveredSrc: ue.SeveredSrc,
				SeveredDst: ue.SeveredDst,
			}
		}
		return pr
	}
	pr := wire.PlanResult{
		Strategy:    res.Plan.Strategy,
		Workload:    w.Kind(),
		Slots:       res.Plan.SlotCount(),
		Rounds:      res.Plan.Rounds,
		H:           res.Plan.H,
		Fingerprint: fmt.Sprintf("%016x", pops.WorkloadFingerprint(w)),
		Cached:      res.Cached,
	}
	if includeSchedule {
		pr.Schedule = res.Plan.Schedule()
	}
	return pr
}

func (s *Service) handleSlots(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	d, errD := strconv.Atoi(q.Get("d"))
	g, errG := strconv.Atoi(q.Get("g"))
	if errD != nil || errG != nil {
		http.Error(w, "service: /slots needs integer query parameters d and g", http.StatusBadRequest)
		return
	}
	slots, err := s.Slots(d, g)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, wire.SlotsResponse{D: d, G: g, Slots: slots})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
