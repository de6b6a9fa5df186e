package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pops"
	"pops/internal/wire"
)

// Stream is one admitted /route/stream request: a handle that delivers the
// plan's slot fragments as the shard's planner peels them. Streams bypass
// the shard's micro-batching queue — each stream checks a worker planner
// out of the shard's pops.Planner pool and runs on the caller's goroutine,
// so the admission queue keeps admitting (and flushing) other requests
// between Next calls, including while this stream's factorization is still
// in progress.
//
// The admission context is threaded into the planner stream: cancelling it
// stops factor production at the next Next call (the context error surfaces
// through Err) and the worker planner returns to the pool on Close.
//
// The caller MUST Close the stream (idempotent, safe after exhaustion):
// Close releases the worker planner back to the shard's pool and signals
// the service's drain bookkeeping — an abandoned stream would otherwise
// block graceful shutdown.
type Stream struct {
	svc   *Service
	sh    *shard
	ps    *pops.PlanStream
	meta  wire.StreamMeta
	start time.Time
	ttfs  bool // first fragment observed

	slots  uint64
	ended  bool // all fragments produced (or planning failed)
	err    error
	closed bool
}

// ExecuteStream admits a streaming plan request for any workload: slot
// fragments are flushed while the König factorization — of the group demand
// graph for permutations, of the request multigraph for h-relations — is
// still peeling later factors. ctx cancels planning between factors.
func (s *Service) ExecuteStream(ctx context.Context, d, g int, w pops.Workload) (*Stream, error) {
	if w == nil {
		return nil, pops.ErrNilWorkload
	}
	st, err := s.admitStreamRetrying(ctx, d, g, w)
	if w.Kind() == pops.WorkloadFaultyPermutation {
		// Fault streams are planned at admission, so an unroutable fault set
		// surfaces here as the admission error — count it like Execute does.
		s.faultPlans.Add(1)
		var ue *pops.UnroutableError
		if errors.As(err, &ue) {
			s.unroutable.Add(1)
		}
	}
	return st, err
}

// admitStreamRetrying resolves the shard (retrying across evictions) and
// admits the stream.
func (s *Service) admitStreamRetrying(ctx context.Context, d, g int, w pops.Workload) (*Stream, error) {
	for {
		sh, err := s.shardFor(d, g)
		if err != nil {
			return nil, err
		}
		st, err := sh.admitStream(ctx, w)
		if err == errShardRetired {
			continue // the shard was evicted between lookup and admission
		}
		if err != nil {
			return nil, err
		}
		return st, nil
	}
}

// admitStream checks shutdown state and the shard's concurrent-stream cap,
// registers the stream with the service's drain group, and starts planning.
func (sh *shard) admitStream(ctx context.Context, w pops.Workload) (*Stream, error) {
	svc := sh.svc
	tenant := pops.TenantFromContext(ctx)
	sh.mu.RLock()
	if sh.closed {
		sh.mu.RUnlock()
		return nil, errShardRetired
	}
	// Each open stream owns a worker planner and a goroutine's worth of
	// factorization, so unbounded streams were the one admission path with
	// no queue to overflow — cap them like everything else (satisfying the
	// shed-don't-collapse invariant for /route/stream too).
	if !sh.acquireStream() {
		sh.mu.RUnlock()
		return nil, sh.shed(tenant, "stream")
	}
	// Registered under the admission lock so a concurrent Close cannot
	// start waiting on the drain group before this stream is counted.
	svc.streamsWG.Add(1)
	sh.mu.RUnlock()

	st := &Stream{svc: svc, sh: sh, start: time.Now()}
	ok := false
	defer func() {
		if !ok {
			sh.releaseStream()
			svc.streamsWG.Done()
		}
	}()

	ps, err := sh.planner.ExecuteStream(ctx, w)
	if err != nil {
		return nil, err
	}
	st.ps = ps
	wireKind := w.Kind()
	planStrategy := pops.StrategyTheoremTwo
	switch wireKind {
	case pops.WorkloadPermutation:
		wireKind = "" // the original untagged schema
	case pops.WorkloadHRelation, pops.WorkloadAllToAll:
		planStrategy = pops.StrategyHRelation
	case pops.WorkloadOneToAll:
		planStrategy = pops.StrategyOneToAll
	case pops.WorkloadFaultyPermutation:
		// StrategyFaulty for a repaired plan, StrategyTheoremTwo when the
		// fault set was empty and planning delegated.
		planStrategy = ps.Strategy()
	}
	st.meta = wire.StreamMeta{
		D: sh.key.d, G: sh.key.g, Workload: wireKind,
		Slots: ps.SlotCount(), Fragments: ps.FragmentCount(),
		Strategy: planStrategy, Fingerprint: fmt.Sprintf("%016x", pops.WorkloadFingerprint(w)),
		Cached: ps.Cached(),
	}
	sh.requests.Add(1)
	sh.streams.Add(1)
	svc.requests.Add(1)
	svc.streams.Add(1)
	svc.tenant(tenant).admitted.Add(1)
	ok = true
	return st, nil
}

// Meta returns the stream's opening record, available immediately after
// admission — before any slot has been computed.
func (st *Stream) Meta() wire.StreamMeta { return st.meta }

// Next produces the next slot fragment, or ok == false when the stream is
// exhausted or failed (see Err). The first successful Next observes the
// service's time-to-first-slot histogram.
func (st *Stream) Next() (wire.StreamSlot, bool) {
	if st.err != nil || st.closed {
		return wire.StreamSlot{}, false
	}
	frag, ok := st.ps.Next()
	if !ok {
		st.err = st.ps.Err()
		if st.err == nil {
			// Collect the drained plan: under pops.WithVerify this is where
			// the completed schedule is replayed on the simulator (a failure
			// becomes the stream's error record instead of a done record),
			// and where the plan is memoized so repeated streamed workloads
			// hit the fingerprint cache.
			if _, err := st.ps.Collect(); err != nil {
				st.err = err
			}
		}
		st.finish()
		return wire.StreamSlot{}, false
	}
	rec := wire.StreamSlot{Slot: frag.Slot, Color: frag.Color, Offset: frag.Offset, Final: frag.Final, Sends: frag.Sends, Recvs: frag.Recvs}
	if !st.ttfs {
		st.ttfs = true
		st.svc.ttfs.Observe(time.Since(st.start))
	}
	st.slots++
	st.svc.streamedSlots.Add(1)
	return rec, true
}

// Err returns the stream's planning error, if any — including ctx.Err()
// when the admission context was cancelled mid-stream.
func (st *Stream) Err() error { return st.err }

// finish records the stream's planning latency once all fragments have
// been produced (or planning failed). Measuring here — not at Close —
// keeps the shared request-latency histogram a server-side planning
// signal: Close time is dominated by how slowly the client read the
// records, and abandoned streams contribute no latency sample at all.
func (st *Stream) finish() {
	if st.ended {
		return
	}
	st.ended = true
	st.svc.latency.Observe(time.Since(st.start))
}

// Close releases the stream's worker planner, frees its slot against the
// shard's concurrent-stream cap, and unblocks graceful drain. Idempotent;
// always call it, drained or not.
func (st *Stream) Close() {
	if st.closed {
		return
	}
	st.closed = true
	st.ps.Close()
	st.sh.releaseStream()
	st.svc.streamsWG.Done()
}
