package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// BucketCount is the number of power-of-two latency buckets: 1µs, 2µs, ...,
// up to 2^18µs (~262ms), plus one unbounded overflow bucket.
const BucketCount = 20

// Bucket is one bucket of a latency histogram: Count observations completed
// in at most LEMicros microseconds (and more than the previous bucket's
// bound). The final bucket has LEMicros == 0, meaning "no upper bound".
// wire.LatencyBucket aliases this type, so histogram snapshots travel on the
// /stats schema unchanged.
type Bucket struct {
	LEMicros uint64 `json:"le_us"`
	Count    uint64 `json:"count"`
}

// Histogram is a fixed-shape power-of-two latency histogram: bucket i counts
// observations in (2^(i-1)µs, 2^iµs], the last bucket is unbounded, and a
// running sum of observed time rides along for Prometheus's _sum series.
// Observe is lock-free and allocation-free.
type Histogram struct {
	counts [BucketCount]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := uint64(d.Microseconds())
	// bits.Len64(us-1) is ceil(log2(us)) for us >= 1: the index of the first
	// bucket whose bound is >= us. us <= 1 (including the us == 0 underflow
	// of the uint subtraction) lands in bucket 0.
	idx := 0
	if us > 1 {
		idx = bits.Len64(us - 1)
	}
	if idx >= BucketCount {
		idx = BucketCount - 1
	}
	h.counts[idx].Add(1)
	h.sum.Add(int64(d))
}

// Snapshot renders the histogram as wire buckets. The slice is freshly
// allocated; concurrent Observes may or may not be included.
func (h *Histogram) Snapshot() []Bucket {
	out := make([]Bucket, BucketCount)
	for i := range out {
		le := uint64(1) << i
		if i == BucketCount-1 {
			le = 0 // unbounded overflow bucket
		}
		out[i] = Bucket{LEMicros: le, Count: h.counts[i].Load()}
	}
	return out
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// SumMicros returns the total observed time in microseconds, the unit the
// /stats snapshots carry histogram sums in.
func (h *Histogram) SumMicros() float64 { return float64(h.Sum()) / float64(time.Microsecond) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}
