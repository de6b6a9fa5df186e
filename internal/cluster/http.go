package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"pops"
	"pops/internal/obs"
	"pops/internal/wire"
	"pops/internal/wirebin"
)

// maxRequestBody mirrors the backend bound (internal/service): the largest
// sensible request is a batch of large permutations, far under this.
const maxRequestBody = 64 << 20

// Handler returns the proxy's HTTP surface — byte-compatible with a single
// popsserved node, so clients move between one machine and a fleet by
// changing a URL:
//
//	POST /route         placed on the workload's ring owner, failover on
//	                    connection errors (planning is idempotent)
//	POST /route/stream  placed the same way; backend NDJSON records are
//	                    re-framed chunk by chunk, never buffering the plan
//	GET  /slots         any owner (pure function of the shape)
//	GET  /stats         fleet aggregate with per-backend breakdown
//	GET  /metrics       Prometheus text exposition, backends labeled by id
//	GET  /debug/slow    slowest proxied requests with phase breakdowns
//	GET  /healthz       "ok" while ≥1 backend is admitted to placement
//
// Every proxied request carries an X-Request-Id — the client's if it sent
// one, a generated one otherwise — forwarded on the backend hop and echoed
// in the proxy's response headers, so one ID follows a request across tiers.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /route", p.handleRoute)
	mux.HandleFunc("POST /route/stream", p.handleRouteStream)
	mux.HandleFunc("GET /slots", p.handleSlots)
	mux.HandleFunc("GET /stats", p.handleStats)
	mux.Handle("GET /metrics", p.metrics)
	mux.HandleFunc("GET /debug/slow", p.handleSlow)
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	return mux
}

// requestID resolves the request's ID: the caller's X-Request-Id when
// present, else a fresh one.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		return id
	}
	return obs.NewRequestID()
}

// enter admits one proxied request into the drain group; it reports false —
// and the caller answers 503 — once Close has started.
func (p *Proxy) enter() bool {
	p.inflight.Add(1)
	if p.closed.Load() {
		p.inflight.Done()
		return false
	}
	return true
}

// requestKey reads just enough of a route request to place it: the shape
// plus the workload fingerprint, computed exactly as the backends compute it
// so proxy placement and backend caches agree. A batch is keyed by the fold
// of its members' fingerprints — a replayed batch lands on the node that
// planned it. Unknown workload kinds (a newer client behind an older proxy)
// are keyed by shape alone and forwarded; the owning backend produces the
// authoritative error or answer.
func requestKey(req *wire.RouteRequest) uint64 {
	switch req.Workload {
	case "", wire.WorkloadPermutation:
		if len(req.Pis) > 0 {
			var fp uint64
			for _, pi := range req.Pis {
				fp = mix64(fp ^ pops.PermutationFingerprint(pi))
			}
			return placementKey(req.D, req.G, fp)
		}
		return placementKey(req.D, req.G, pops.PermutationFingerprint(req.Pi))
	case wire.WorkloadHRelation:
		reqs := make([]pops.Request, len(req.Requests))
		for i, r := range req.Requests {
			reqs[i] = pops.Request{Src: r.Src, Dst: r.Dst}
		}
		return placementKey(req.D, req.G, pops.WorkloadFingerprint(pops.HRelation(reqs)))
	case wire.WorkloadAllToAll:
		return placementKey(req.D, req.G, pops.WorkloadFingerprint(pops.AllToAll()))
	case wire.WorkloadOneToAll:
		return placementKey(req.D, req.G, pops.WorkloadFingerprint(pops.OneToAll(req.Speaker)))
	case wire.WorkloadFaultyPermutation:
		var fs pops.FaultSet
		if req.Faults != nil {
			fs.Couplers = make([]pops.Coupler, len(req.Faults.Couplers))
			for i, c := range req.Faults.Couplers {
				fs.Couplers[i] = pops.Coupler{B: c.B, A: c.A}
			}
			fs.Groups = req.Faults.Groups
		}
		return placementKey(req.D, req.G, pops.WorkloadFingerprint(pops.FaultyPermutation(req.Pi, fs)))
	default:
		return placementKey(req.D, req.G, 0)
	}
}

// forward posts body to path on the owners of key in failover order and
// returns the first reachable backend's response (non-2xx answers other than
// overload verdicts are deterministic and are relayed, not retried; a 429 is
// surfaced as *pops.OverloadError so tryOwners can spill it once). The
// caller owns the response body. The request ID travels on the backend hop
// as X-Request-Id, the caller's deadline and tenant headers travel with it,
// and sp (nil-safe) records which backend ultimately answered; attempts run
// sequentially on the calling goroutine, so the last write wins without
// synchronization.
func (p *Proxy) forward(ctx context.Context, key uint64, path string, body []byte, stream bool, id string, hdr http.Header, sp *obs.Span) (*http.Response, error) {
	return tryOwners(p, ctx, key, func(b *backend) (*http.Response, error) {
		b.requests.Add(1)
		if stream {
			b.streams.Add(1)
		}
		if sp != nil {
			sp.Backend = b.id
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.id+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		// The backend hop carries the caller's codec negotiation unchanged:
		// its request Content-Type (binary-framed bodies pass through) and
		// its Accept (the backend picks the response codec, the proxy just
		// relays whatever framing comes back).
		ct := hdr.Get("Content-Type")
		if ct == "" {
			ct = "application/json"
		}
		req.Header.Set("Content-Type", ct)
		req.Header.Set("X-Request-Id", id)
		for _, h := range []string{wire.HeaderDeadline, wire.HeaderTenant, "Accept"} {
			if v := hdr.Get(h); v != "" {
				req.Header.Set(h, v)
			}
		}
		resp, err := p.cfg.Client.Do(req)
		if err != nil {
			return nil, err
		}
		if oe := pops.OverloadFromResponse(resp); oe != nil {
			// Shedding is not death: drain the 429 and hand tryOwners the
			// typed verdict — it spills to the next ring owner once instead
			// of ejecting a backend that is alive and protecting itself.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
			resp.Body.Close()
			return nil, oe
		}
		return resp, nil
	})
}

// forwardError maps a forwarding failure to the proxy's answer: a caller
// hang-up stays silent, an overload verdict is relayed as 429 + Retry-After,
// exhausted failover is 502.
func forwardError(w http.ResponseWriter, ctx context.Context, err error) {
	if ctx.Err() != nil {
		return // the caller went away; nobody is reading the answer
	}
	var oe *pops.OverloadError
	if errors.As(err, &oe) {
		writeOverload(w, oe)
		return
	}
	http.Error(w, err.Error(), http.StatusBadGateway)
}

// writeOverload answers an overload verdict exactly as popsserved does —
// 429 with the Retry-After pair and attribution headers — so a client
// behind the proxy sheds and backs off identically to one talking to a
// single node.
func writeOverload(w http.ResponseWriter, oe *pops.OverloadError) {
	ra := oe.RetryAfter
	if ra <= 0 {
		ra = 50 * time.Millisecond
	}
	secs := int64((ra + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.Header().Set(wire.HeaderRetryAfterMs, strconv.FormatInt(int64((ra+time.Millisecond-1)/time.Millisecond), 10))
	if oe.Queue != "" {
		w.Header().Set(wire.HeaderOverloadQueue, oe.Queue)
	}
	if oe.Tenant != "" {
		w.Header().Set(wire.HeaderTenant, oe.Tenant)
	}
	http.Error(w, oe.Error(), http.StatusTooManyRequests)
}

// decodeProxyRequest reads a route request body in whichever codec the
// caller framed it — a binary FrameRequest when the Content-Type says so,
// JSON otherwise — so placement sees the same fields either way. The raw
// body bytes are forwarded to the backend unchanged regardless of codec.
func decodeProxyRequest(contentType string, body []byte, req *wire.RouteRequest) error {
	if !wirebin.IsContentType(contentType) {
		return json.Unmarshal(body, req)
	}
	dec := wirebin.GetDecoder(bytes.NewReader(body))
	defer wirebin.PutDecoder(dec)
	typ, payload, err := dec.ReadFrame()
	if err != nil {
		return err
	}
	if typ != wirebin.FrameRequest {
		return fmt.Errorf("frame type %d, want request", typ)
	}
	return wirebin.DecodeRequest(payload, req)
}

func (p *Proxy) handleRoute(w http.ResponseWriter, r *http.Request) {
	if !p.enter() {
		http.Error(w, ErrClosed.Error(), http.StatusServiceUnavailable)
		return
	}
	defer p.inflight.Done()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		http.Error(w, "cluster: reading request: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req wire.RouteRequest
	if err := decodeProxyRequest(r.Header.Get("Content-Type"), body, &req); err != nil {
		http.Error(w, "cluster: decoding request: "+err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	id := requestID(r)
	w.Header().Set("X-Request-Id", id)
	sp := p.tracer.Start(id, req.D, req.G)
	sp.Workload = req.Workload
	sp.Begin(obs.PhaseForward)
	resp, err := p.forward(ctx, requestKey(&req), "/route", body, false, id, r.Header, sp)
	sp.End()
	if err != nil {
		forwardError(w, ctx, err)
		p.latency.Observe(p.tracer.Finish(sp))
		return
	}
	defer resp.Body.Close()
	relayHeader(w, resp)
	sp.Begin(obs.PhaseEncode)
	_, _ = io.Copy(w, resp.Body) // mid-copy failures mean the caller went away
	p.latency.Observe(p.tracer.Finish(sp))
}

// relayHeader copies the backend's content type, request ID, and status
// through.
func relayHeader(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if id := resp.Header.Get("X-Request-Id"); id != "" {
		w.Header().Set("X-Request-Id", id)
	}
	w.WriteHeader(resp.StatusCode)
}

// handleRouteStream places a slot stream on its ring owner and re-frames the
// backend's NDJSON records one line at a time: each complete line is written
// and flushed as its own chunk, so the proxy adds one record of latency, not
// one plan — nothing is buffered beyond the line in flight. Failover covers
// stream admission only; once records have been relayed, a backend failure
// becomes a wire "error" record (delivered fragments cannot be replayed).
func (p *Proxy) handleRouteStream(w http.ResponseWriter, r *http.Request) {
	if !p.enter() {
		http.Error(w, ErrClosed.Error(), http.StatusServiceUnavailable)
		return
	}
	defer p.inflight.Done()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		http.Error(w, "cluster: reading request: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req wire.RouteRequest
	if err := decodeProxyRequest(r.Header.Get("Content-Type"), body, &req); err != nil {
		http.Error(w, "cluster: decoding request: "+err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	id := requestID(r)
	w.Header().Set("X-Request-Id", id)
	sp := p.tracer.Start(id, req.D, req.G)
	sp.Workload = req.Workload
	// Stream spans feed the slow ring only, not the latency histogram: a
	// stream's wall clock is dominated by how fast the caller reads.
	defer p.tracer.Finish(sp)
	sp.Begin(obs.PhaseForward)
	resp, err := p.forward(ctx, requestKey(&req), "/route/stream", body, true, id, r.Header, sp)
	sp.End()
	if err != nil {
		forwardError(w, ctx, err)
		return
	}
	defer resp.Body.Close()
	// Relay the backend's response headers — content type and X-Request-Id —
	// for every status: a stream answered 200 used to overwrite them with a
	// hardcoded content type, dropping the backend's request-ID echo.
	relayHeader(w, resp)
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(w, resp.Body)
		return
	}

	flusher, _ := w.(http.Flusher)
	if wirebin.IsContentType(resp.Header.Get("Content-Type")) {
		p.relayBinaryStream(ctx, w, flusher, resp.Body, sp)
		return
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		// Relay only complete records: a partial line truncated by a backend
		// failure is dropped, and the failure surfaces as an error record.
		if len(line) > 0 && line[len(line)-1] == '\n' {
			sp.Begin(obs.PhaseEncode)
			_, werr := w.Write(line)
			if flusher != nil {
				flusher.Flush()
			}
			sp.End()
			if werr != nil {
				return // the caller went away; the deferred Close hangs up upstream
			}
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			rec, _ := json.Marshal(wire.StreamRecord{Type: "error", Error: fmt.Sprintf("cluster: backend stream: %v", err)})
			if _, werr := w.Write(append(rec, '\n')); werr == nil && flusher != nil {
				flusher.Flush()
			}
			return
		}
	}
}

// relayBinaryStream re-frames a backend's binary slot stream one whole frame
// at a time: the Reframer reassembles frames that span HTTP chunk boundaries
// (the backend's flush points and the proxy transport's reads need not
// agree), and each reassembled frame is written and flushed as its own
// chunk without decoding its fields. A backend failure mid-stream becomes an
// in-band binary error frame, mirroring the NDJSON error record.
func (p *Proxy) relayBinaryStream(ctx context.Context, w http.ResponseWriter, flusher http.Flusher, body io.Reader, sp *obs.Span) {
	rf := wirebin.NewReframer(body)
	for {
		frame, err := rf.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			enc := wirebin.GetEncoder()
			errFrame := enc.AppendError(fmt.Sprintf("cluster: backend stream: %v", err))
			if _, werr := w.Write(errFrame); werr == nil && flusher != nil {
				flusher.Flush()
			}
			wirebin.PutEncoder(enc)
			return
		}
		sp.Begin(obs.PhaseEncode)
		_, werr := w.Write(frame)
		if flusher != nil {
			flusher.Flush()
		}
		sp.End()
		if werr != nil {
			return // the caller went away; the deferred Close hangs up upstream
		}
	}
}

func (p *Proxy) handleSlots(w http.ResponseWriter, r *http.Request) {
	if !p.enter() {
		http.Error(w, ErrClosed.Error(), http.StatusServiceUnavailable)
		return
	}
	defer p.inflight.Done()
	q := r.URL.Query()
	d, errD := strconv.Atoi(q.Get("d"))
	g, errG := strconv.Atoi(q.Get("g"))
	if errD != nil || errG != nil {
		http.Error(w, "cluster: /slots needs integer query parameters d and g", http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	slots, err := p.Slots(ctx, d, g)
	if err != nil {
		var oe *pops.OverloadError
		if isConnErr(err) || errors.As(err, &oe) || ctx.Err() != nil {
			forwardError(w, ctx, err)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, wire.SlotsResponse{D: d, G: g, Slots: slots})
}

func (p *Proxy) handleStats(w http.ResponseWriter, r *http.Request) {
	if !p.enter() {
		http.Error(w, ErrClosed.Error(), http.StatusServiceUnavailable)
		return
	}
	defer p.inflight.Done()
	stats, err := p.Stats(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(w, stats)
}

// handleSlow serves GET /debug/slow: the slowest proxied requests, worst
// first, with forward/encode phase breakdowns and the answering backend's
// identity. ?n= bounds the list.
func (p *Proxy) handleSlow(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("n"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, "cluster: /debug/slow?n= takes a non-negative integer", http.StatusBadRequest)
			return
		}
		limit = n
	}
	writeJSON(w, wire.SlowResponse{
		Server:   "popsproxy",
		Requests: p.tracer.Slow.Snapshot(limit),
	})
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := p.Healthz(r.Context()); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}
