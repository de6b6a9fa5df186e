package pops

// Option is a functional option configuring a Planner. Options apply to the
// shared Options struct that is threaded down into the planning layers
// (internal/core).
type Option func(*Options)

// WithAlgorithm selects the bipartite edge-coloring backend used by the
// Theorem 2 planner (the computational bottleneck named in Remark 1 of the
// paper). The default is EulerSplitDC (the Algorithm zero value).
func WithAlgorithm(a Algorithm) Option {
	return func(o *Options) { o.Algorithm = a }
}

// WithVerify makes every produced schedule get replayed on the slot-level
// simulator before it is returned; a simulation failure becomes a planning
// error. Off by default: the construction is proven correct, and planners
// re-check the paper's fair-distribution invariants in any case.
func WithVerify(v bool) Option {
	return func(o *Options) { o.Verify = v }
}

// WithParallelism bounds the Planner's worker pool: how many core planners
// its free list keeps and how many workers RouteBatch fans out to. n < 1
// selects the default, GOMAXPROCS. Single-permutation planning is unaffected.
func WithParallelism(n int) Option {
	return func(o *Options) { o.Parallelism = n }
}

// WithPlanCache gives the Planner a fingerprint-keyed plan cache of at most
// n entries (LRU eviction): a permutation already planned on this Planner is
// answered from the cache instead of replanned. Keys are
// PermutationFingerprint digests, and every hit re-verifies permutation
// equality before the memoized plan is returned, so a 64-bit collision can
// cost a miss but never yield a wrong plan. Cached plans are shared between
// callers and must be treated as immutable.
// n < 1 disables caching (the default). Hit/miss/eviction counters are
// exposed through Planner.CacheStats.
func WithPlanCache(n int) Option {
	return func(o *Options) { o.PlanCache = n }
}

// WithPlanObserver installs o as the planner's plan observer: every
// completed Execute, stream or RouteBatch entry invokes o.ObservePlan with
// the resolved strategy, whether the plan came from the fingerprint cache, and how long
// the call took (for cache hits, the lookup time). The observer must be safe
// for concurrent use and should not block — it runs inline on the planning
// path. nil (the default) observes nothing.
func WithPlanObserver(o PlanObserver) Option {
	return func(opts *Options) { opts.Observer = o }
}

// NewOptions resolves functional options into the Options struct accepted by
// the lower-level constructors (mesh.New, hypercube.New, matmul.Multiply and
// the internal planners).
func NewOptions(opts ...Option) Options {
	var o Options
	for _, apply := range opts {
		apply(&o)
	}
	return o
}
