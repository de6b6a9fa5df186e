package pops

import (
	"container/list"
	"sync"

	"pops/internal/perms"
)

// CacheStats is a snapshot of a Planner's workload plan cache counters
// (see WithPlanCache). Hits + Misses is the total number of lookups; a
// lookup that finds the key but fails the equality check (a 64-bit
// collision) counts as a miss.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// planCache memoizes *Plan results keyed by the workload cache key — the
// workload-kind tag mixed into the content fingerprint — with an LRU bound
// on live entries. Because the key is a 64-bit digest, every hit re-verifies
// the stored workload identity (kind plus the flattened content) for
// equality before the plan is trusted; a fingerprint collision therefore
// degrades to a miss (the colliding entry is overwritten), never to a wrong
// plan.
//
// Cached *Plans are shared: a hit returns the same pointer that an earlier
// call produced, so callers must treat plans as immutable — which the rest
// of the API already assumes (Plan methods only read).
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*list.Element // cache key -> *cacheEntry element
	lru     list.List                // front = most recently used
	stats   CacheStats
}

// cacheEntry is one memoized plan. ident is the workload's flattened
// identity (the permutation itself, or the src/dst pairs of an
// h-relation), kept for the equality check on hits.
type cacheEntry struct {
	key   uint64
	kind  uint8
	ident []int
	plan  *Plan
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		entries: make(map[uint64]*list.Element, capacity),
		stats:   CacheStats{Capacity: capacity},
	}
}

// get returns the memoized plan for workload w under (key, kind), if any,
// and records the hit or miss. w is flattened to its identity only when an
// entry holds the key, so a miss costs no copy of the workload.
func (c *planCache) get(key uint64, kind uint8, w Workload) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		if e.kind == kind && perms.Equal(e.ident, workloadIdent(w)) {
			c.lru.MoveToFront(el)
			c.stats.Hits++
			return e.plan, true
		}
	}
	c.stats.Misses++
	return nil, false
}

// put memoizes plan under key, keeping ident for hit-time verification and
// evicting the least recently used entry when the cache is full. A same-key
// entry (collision, or a racing insert of the same workload) is overwritten
// in place. The cache keeps ident without copying it, so it must be memory
// no caller writes again: cacheIdentFor's, which is the immutable plan's
// own or freshly built.
func (c *planCache) put(key uint64, kind uint8, ident []int, plan *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.kind = kind
		e.ident = ident
		e.plan = plan
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.cap {
		back := c.lru.Back()
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.lru.Remove(back)
		c.stats.Evictions++
	}
	e := &cacheEntry{key: key, kind: kind, ident: ident, plan: plan}
	c.entries[key] = c.lru.PushFront(e)
}

// snapshot returns the current counters.
func (c *planCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}
