package edgecolor

import (
	"context"
	"errors"
	"fmt"

	"pops/internal/graph"
)

// ErrStreamSuperseded is returned by Stream.Next once another factorization
// (batch or streaming) has run on the stream's Factorizer: the arena that
// held the stream's resumable state has been reused.
var ErrStreamSuperseded = errors.New("edgecolor: stream superseded by a later call on its Factorizer")

// Stream is a paused 1-factorization: each Next call resumes the underlying
// algorithm just long enough to peel one more 1-factor and then suspends it
// again, leaving the factor's class index in the caller's color buffer. It
// is the incremental form of FactorizeInto/BalancedInto — driving a Stream
// to exhaustion writes exactly the colors the batch call would have written,
// because batch and stream drain the same arena steppers.
//
// A Stream borrows its Factorizer's arena: starting another factorization
// on the same arena (FactorizeInto, BalancedInto, Start, StartBalanced)
// supersedes the stream, and its Next then returns ErrStreamSuperseded.
// Steady-state Next calls on a warmed arena do not allocate; Start itself
// allocates only the stream handle.
type Stream struct {
	f    *Factorizer
	gen  uint64
	algo Algorithm
	ctx  context.Context // cancellation checked between factors; nil = never

	b     *graph.Bipartite // caller's graph; colorBuf and Factor are indexed by its edge IDs
	inner *graph.Bipartite // graph actually factorized (the padded graph, or b itself)
	all   []graph.Edge     // inner's edge list
	nL    int
	nR    int
	k     int // total number of factors this stream will produce

	// padded marks the Theorem 1 balanced mode: factors are peeled from the
	// padded graph and filtered down to real edges, each class carrying
	// exactly classSize of them.
	padded    bool
	classSize int

	insReady bool // insertion backend: inner coloring materialized

	produced int
	factor   []int
	err      error
	done     bool
}

// Start begins a streaming 1-factorization of a k-regular bipartite
// multigraph with equal sides: the stream's Next calls yield the k perfect
// matchings one at a time. Validation errors (unequal sides, irregular
// graph, unknown algorithm) surface on the first Next. The returned stream
// borrows the Factorizer's arena — one stream per arena at a time.
func (f *Factorizer) Start(b *graph.Bipartite, algo Algorithm) *Stream {
	return f.StartCtx(context.Background(), b, algo)
}

// StartCtx is Start with a context: ctx is checked between factors, so
// cancelling it stops factor production at the next Next call, which then
// returns ctx.Err() as the stream's sticky error.
func (f *Factorizer) StartCtx(ctx context.Context, b *graph.Bipartite, algo Algorithm) *Stream {
	f.streamGen++
	st := &Stream{f: f, gen: f.streamGen, algo: algo, ctx: ctx, b: b, inner: b}
	if b.NLeft() != b.NRight() {
		st.err = fmt.Errorf("edgecolor: sides differ (%d vs %d)", b.NLeft(), b.NRight())
		return st
	}
	k, ok := b.RegularDegree()
	if !ok {
		st.err = graph.ErrNotBipartiteRegular
		return st
	}
	st.k = k
	st.classSize = -1
	st.start()
	return st
}

// StartBalanced begins a streaming balanced coloring (Theorem 1): the
// stream yields colorCount classes of exactly n·k/C real edges each,
// peeling them from the padded graph of BalancedInto. Driving the stream to
// exhaustion writes exactly the colors BalancedInto would have written. The
// per-class size check runs as each factor lands instead of at the end.
func (f *Factorizer) StartBalanced(b *graph.Bipartite, colorCount int, algo Algorithm) *Stream {
	return f.StartBalancedCtx(context.Background(), b, colorCount, algo)
}

// StartBalancedCtx is StartBalanced with a context, checked between factors
// like StartCtx.
func (f *Factorizer) StartBalancedCtx(ctx context.Context, b *graph.Bipartite, colorCount int, algo Algorithm) *Stream {
	f.streamGen++
	st := &Stream{f: f, gen: f.streamGen, algo: algo, ctx: ctx, b: b, inner: b}
	classSize, padded, err := f.balancedSetup(b, colorCount, b.NumEdges())
	if err != nil {
		st.err = err
		return st
	}
	st.k = colorCount
	st.classSize = -1
	if padded != nil {
		st.inner = padded
		st.padded = true
		st.classSize = classSize
		f.padColors = graph.ResizeInts(f.padColors, padded.NumEdges())
	}
	st.start()
	return st
}

// start finishes stream setup once the inner graph and factor count are
// known: it validates the algorithm and seeds the matching stepper.
func (st *Stream) start() {
	st.all = st.inner.EdgeList()
	st.nL, st.nR = st.inner.NLeft(), st.inner.NRight()
	switch st.algo {
	case EulerSplitDC:
		st.f.eulerStart(st.inner, st.k)
	case RepeatedMatching:
		st.f.repStart(st.inner, st.k)
	case Insertion:
		// Materialized lazily on the first Next (the coloring needs its
		// target buffer in hand); nothing to seed here.
	default:
		st.err = fmt.Errorf("edgecolor: unknown algorithm %v", st.algo)
	}
}

// Next resumes the factorization until one more 1-factor is complete,
// writing the factor's class index into colorBuf (indexed by edge ID of the
// graph passed to Start/StartBalanced) for every edge of the factor. It
// returns the class index and ok == true, or ok == false once all factors
// have been produced. The same colorBuf must be passed to every Next call
// of one stream; after the final factor it is identical to what the batch
// FactorizeInto/BalancedInto call would have produced. Errors are sticky.
func (st *Stream) Next(colorBuf []int) (factorID int, ok bool, err error) {
	if st.err != nil {
		return 0, false, st.err
	}
	if st.done {
		return 0, false, nil
	}
	if st.gen != st.f.streamGen {
		st.err = ErrStreamSuperseded
		return 0, false, st.err
	}
	if st.ctx != nil {
		if err := st.ctx.Err(); err != nil {
			st.err = err
			return 0, false, st.err
		}
	}
	if len(colorBuf) != st.b.NumEdges() {
		st.err = fmt.Errorf("edgecolor: %d color slots for %d edges", len(colorBuf), st.b.NumEdges())
		return 0, false, st.err
	}

	// In padded mode the steppers color the padded graph into the arena's
	// padColors; the real classes are filtered out below.
	target := colorBuf
	if st.padded {
		target = st.f.padColors
	}
	var factor []int
	switch st.algo {
	case EulerSplitDC:
		factorID, factor, ok, err = st.f.eulerNext(target, st.all, st.nL, st.nR)
	case RepeatedMatching:
		factorID, factor, ok, err = st.f.repNext(target, st.all, st.nL, st.nR)
	case Insertion:
		factorID, factor, ok, err = st.insNext(target)
	}
	if err != nil {
		st.err = err
		return 0, false, err
	}
	if !ok {
		if st.produced != st.k {
			st.err = fmt.Errorf("edgecolor: internal error: stream produced %d of %d factors", st.produced, st.k)
			return 0, false, st.err
		}
		st.done = true
		st.factor = nil
		return 0, false, nil
	}
	if st.padded {
		real := st.b.NumEdges()
		st.f.realBuf = st.f.realBuf[:0]
		for _, id := range factor {
			if id < real {
				st.f.realBuf = append(st.f.realBuf, id)
				colorBuf[id] = factorID
			}
		}
		factor = st.f.realBuf
		if len(factor) != st.classSize {
			st.err = fmt.Errorf("edgecolor: internal error: class %d has %d real edges, want %d",
				factorID, len(factor), st.classSize)
			return 0, false, st.err
		}
	}
	st.produced++
	st.factor = factor
	return factorID, true, nil
}

// insNext adapts the insertion coloring — which repairs earlier colors
// along alternating paths and therefore cannot expose intermediate state —
// to the stream contract: the full coloring is materialized on the first
// call and bucketed by color (a counting sort into the arena's ids, so IDs
// stay ascending within a class), then emitted one class per call in
// ascending color order at O(class size) each.
func (st *Stream) insNext(target []int) (factorID int, factor []int, ok bool, err error) {
	f := st.f
	if !st.insReady {
		c, err := f.colorInsertionInto(target, st.inner)
		if err != nil {
			return 0, nil, false, err
		}
		if c > st.k {
			return 0, nil, false, fmt.Errorf("edgecolor: insertion used %d colors on %d-regular graph", c, st.k)
		}
		colors := target[:st.inner.NumEdges()]
		f.insEnd = graph.ResizeInts(f.insEnd, st.k)
		clear(f.insEnd)
		for _, c := range colors {
			f.insEnd[c]++
		}
		start := 0
		for c, size := range f.insEnd {
			f.insEnd[c] = start
			start += size
		}
		f.ids = graph.ResizeInts(f.ids, len(colors))
		for id, c := range colors {
			f.ids[f.insEnd[c]] = id
			f.insEnd[c]++ // ends at class c's end, the start of class c+1
		}
		st.insReady = true
	}
	if st.produced >= st.k {
		return 0, nil, false, nil
	}
	factorID = st.produced
	lo := 0
	if factorID > 0 {
		lo = f.insEnd[factorID-1]
	}
	return factorID, f.ids[lo:f.insEnd[factorID]], true, nil
}

// Factor returns the edge IDs of the most recently produced factor, in the
// graph passed to Start/StartBalanced (padding edges are already filtered
// out). The slice is arena-owned: it is valid until the next Next call or
// any other call on the stream's Factorizer, and must not be modified. The
// IDs are in no particular order.
func (st *Stream) Factor() []int { return st.factor }

// NumFactors returns the total number of factors the stream produces: the
// regular degree for Start, colorCount for StartBalanced.
func (st *Stream) NumFactors() int { return st.k }

// Produced returns how many factors Next has yielded so far.
func (st *Stream) Produced() int { return st.produced }

// Err returns the stream's sticky error, if any.
func (st *Stream) Err() error { return st.err }
