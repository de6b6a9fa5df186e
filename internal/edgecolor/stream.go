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
// algorithm just long enough to produce one more color class and then
// suspends it again, leaving the class index in the caller's color buffer.
// It is the incremental form of FactorizeInto/BalancedInto — driving a
// Stream to exhaustion writes exactly the colors the batch call would have
// written. Only EulerSplitDC is resumable, and batch and stream drain the
// same stepper; the other backends color whole on the first Next and then
// hand out one class per call.
//
// A Stream borrows its Factorizer's arena: starting another factorization
// on the same arena (FactorizeInto, BalancedInto, StartCtx, StartBalancedCtx)
// supersedes the stream, and its Next then returns ErrStreamSuperseded.
// Steady-state Next calls on a warmed arena do not allocate; starting one
// allocates only the stream handle.
type Stream struct {
	f    *Factorizer
	gen  uint64
	algo Algorithm
	ctx  context.Context // cancellation checked between classes; nil = never

	b       *graph.Bipartite // colorBuf and Factor are indexed by its edge IDs
	all     []graph.Edge     // b's edge list
	nL      int
	k       int // 1-factors the stepper peels: the regular degree
	classes int // classes the stream yields: k, or the color count C

	// balanced marks StartBalancedCtx with C > k: the peeled factors are cut
	// into classes of exactly classSize edges (see balancedNext).
	balanced  bool
	classSize int
	cur       []int // factor being cut into classes; arena-owned
	pos       int   // first edge of cur not yet in a class
	openFull  bool  // the last class emitted was the open class

	// Backends other than EulerSplitDC stream their batch coloring: it is
	// materialized on the first Next, then emitted one class per call.
	materialized bool
	cursor       int // next class to emit

	produced int
	factor   []int
	err      error
	done     bool
}

// StartCtx begins a streaming 1-factorization of a k-regular bipartite
// multigraph with equal sides: the stream's Next calls yield the k perfect
// matchings one at a time. Validation errors (unequal sides, irregular
// graph, unknown algorithm) surface on the first Next. The returned stream
// borrows the Factorizer's arena — one stream per arena at a time. ctx is
// checked between factors, so cancelling it stops factor production at the
// next Next call, which then returns ctx.Err() as the stream's sticky error.
func (f *Factorizer) StartCtx(ctx context.Context, b *graph.Bipartite, algo Algorithm) *Stream {
	st := &Stream{}
	f.begin(st, ctx, b, -1, algo)
	return st
}

// StartBalancedCtx begins a streaming balanced coloring (Theorem 1): the
// stream yields colorCount classes of exactly n·k/C edges each, built by
// the chunk-and-balance construction of Balanced. Driving the stream to
// exhaustion writes exactly the colors BalancedInto would have written.
// For C > k the classes are numbered in emission order, and the first one
// is ready as soon as the first 1-factor is: under EulerSplitDC after one
// root-to-leaf path of halvings, about 2m edge visits for power-of-two k.
// ctx is checked between classes like StartCtx.
func (f *Factorizer) StartBalancedCtx(ctx context.Context, b *graph.Bipartite, colorCount int, algo Algorithm) *Stream {
	st := &Stream{}
	f.begin(st, ctx, b, colorCount, algo)
	return st
}

// begin sets st up as a stream over b on f's arena: the plain
// 1-factorization for colorCount < 0, the balanced coloring otherwise. It
// validates the instance and seeds the matching stepper; errors are left
// sticky in st.
func (f *Factorizer) begin(st *Stream, ctx context.Context, b *graph.Bipartite, colorCount int, algo Algorithm) {
	f.streamGen++
	*st = Stream{f: f, gen: f.streamGen, algo: algo, ctx: ctx, b: b}
	var k, classSize int
	if colorCount < 0 {
		if b.NLeft() != b.NRight() {
			st.err = fmt.Errorf("edgecolor: sides differ (%d vs %d)", b.NLeft(), b.NRight())
			return
		}
		var ok bool
		if k, ok = b.RegularDegree(); !ok {
			st.err = graph.ErrNotBipartiteRegular
			return
		}
		colorCount = k
	} else {
		var err error
		if k, classSize, err = balancedCheck(b, colorCount); err != nil {
			st.err = err
			return
		}
	}
	st.k, st.classes = k, colorCount
	st.all = b.EdgeList()
	st.nL = b.NLeft()
	if colorCount > k {
		st.balanced, st.classSize = true, classSize
		f.resetOpen(st.nL, classSize)
	}
	switch algo {
	case EulerSplitDC:
		f.eulerStart(b, k)
	case RepeatedMatching, Insertion:
		// Materialized on the first Next (the coloring needs its target
		// buffer in hand); nothing to seed here.
	default:
		st.err = fmt.Errorf("edgecolor: unknown algorithm %v", algo)
	}
}

// Next resumes the coloring until one more class is complete, writing the
// class index into colorBuf (indexed by edge ID of the graph passed to
// StartCtx/StartBalancedCtx) for every edge of the class. It returns the class
// index and ok == true, or ok == false once all classes have been
// produced. The same colorBuf must be passed to every Next call of one
// stream; after the final class it is identical to what the batch
// FactorizeInto/BalancedInto call would have produced. Entries of edges not
// yet in a class are scratch until then. Errors are sticky.
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

	var factor []int
	if st.balanced {
		factorID, factor, ok, err = st.balancedNext(colorBuf)
	} else {
		factorID, factor, ok, err = st.peel(colorBuf)
	}
	if err != nil {
		st.err = err
		return 0, false, err
	}
	if !ok {
		if st.produced != st.classes {
			st.err = fmt.Errorf("edgecolor: internal error: stream produced %d of %d classes", st.produced, st.classes)
			return 0, false, st.err
		}
		st.done = true
		st.factor = nil
		return 0, false, nil
	}
	st.produced++
	st.factor = factor
	return factorID, true, nil
}

// peel resumes the coloring until one more 1-factor of b is complete,
// writing its index into colors for each of its edges. Only EulerSplitDC,
// the production engine, is resumable; the other backends run whole on the
// first call and then hand out their classes.
func (st *Stream) peel(colors []int) (factorID int, factor []int, ok bool, err error) {
	if st.algo == EulerSplitDC {
		return st.f.eulerNext(colors, st.all, st.nL)
	}
	f := st.f
	if !st.materialized {
		if err := f.factorize(colors, st.b, st.k, st.algo); err != nil {
			return 0, nil, false, err
		}
		st.materialized = true
	}
	if st.cursor >= st.k {
		return 0, nil, false, nil
	}
	factorID = st.cursor
	st.cursor++
	return factorID, f.ids[factorID*st.nL : (factorID+1)*st.nL], true, nil
}

// balancedNext yields the next class of the chunk-and-balance construction
// (see Balanced). Classes are cut from the current factor in order; the
// tail of a factor too short for a class opens the open class, which the
// next factor then tops up through balance. Every class is written into
// colors once, when it is emitted, as the number of classes before it.
func (st *Stream) balancedNext(colors []int) (classID int, class []int, ok bool, err error) {
	f, s := st.f, st.classSize
	if st.openFull {
		f.clearOpen(st.all)
		st.openFull = false
	}
	for st.produced < st.classes && len(st.cur)-st.pos < s {
		// The tail joins the open class, which is empty whenever the tail
		// is not: a tail is only left after the open class was emitted.
		for _, id := range st.cur[st.pos:] {
			f.openAdd(st.all, id)
		}
		_, a, ok, err := st.peel(colors)
		if err != nil {
			return 0, nil, false, err
		}
		if !ok {
			return 0, nil, false, fmt.Errorf("edgecolor: internal error: factors ran out after %d of %d classes",
				st.produced, st.classes)
		}
		st.cur, st.pos = a, 0
		if len(f.open) == 0 {
			continue
		}
		full, err := f.balance(st.all, a, s)
		if err != nil {
			return 0, nil, false, err
		}
		st.cur = f.balA
		if full {
			st.openFull = true
			return st.emit(colors, f.open)
		}
		st.pos = s
		return st.emit(colors, f.balA)
	}
	if st.produced == st.classes {
		if _, _, more, err := st.peel(colors); more || err != nil || len(f.open) != 0 || st.pos != len(st.cur) {
			return 0, nil, false, fmt.Errorf("edgecolor: internal error: edges left after %d classes", st.classes)
		}
		return 0, nil, false, nil
	}
	st.pos += s
	return st.emit(colors, st.cur[st.pos-s:st.pos])
}

// emit writes the next class index into colors for every edge of class.
func (st *Stream) emit(colors, class []int) (int, []int, bool, error) {
	for _, id := range class {
		colors[id] = st.produced
	}
	return st.produced, class, true, nil
}

// Factor returns the edge IDs of the most recently produced class, in the
// graph passed to StartCtx/StartBalancedCtx. The slice is arena-owned: it is valid until the next Next call or
// any other call on the stream's Factorizer, and must not be modified. The
// IDs are in no particular order.
func (st *Stream) Factor() []int { return st.factor }

// Err returns the stream's sticky error, if any.
func (st *Stream) Err() error { return st.err }
