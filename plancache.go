package pops

import (
	"container/list"
	"sync"
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
// the workload's identity — its kind, and its content against the cached
// plan's own copy (planAnswers) — before the plan is trusted; a fingerprint
// collision therefore degrades to a miss (the colliding entry is
// overwritten), never to a wrong plan.
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

// cacheEntry is one memoized plan. The plan itself carries the workload
// identity a hit re-verifies, so the entry keeps no copy of it.
type cacheEntry struct {
	key  uint64
	kind uint8
	plan *Plan
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		entries: make(map[uint64]*list.Element, capacity),
		stats:   CacheStats{Capacity: capacity},
	}
}

// get returns the memoized plan for workload w under (key, kind), if any,
// and records the hit or miss.
func (c *planCache) get(key uint64, kind uint8, w Workload) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		if e.kind == kind && planAnswers(e.plan, w) {
			c.lru.MoveToFront(el)
			c.stats.Hits++
			return e.plan, true
		}
	}
	c.stats.Misses++
	return nil, false
}

// put memoizes plan under key, evicting the least recently used entry when
// the cache is full. A same-key entry (collision, or a racing insert of the
// same workload) is overwritten in place.
func (c *planCache) put(key uint64, kind uint8, plan *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.kind = kind
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
	e := &cacheEntry{key: key, kind: kind, plan: plan}
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
