package service

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/modular"
	"repro/internal/obs"
)

// tier is one level of the engine's cache: an LRU map behind a
// single-flight group, with one lookup path. The engine has two — solved
// results, and explored models of every kind (architecture chains and
// attack trees) — and every cache lookup goes through get.
type tier struct {
	*lruCache
	flight flightGroup
	// hit, miss and evict name the tier's obs counters.
	hit, miss, evict string
}

func newTier(name string, size int) *tier {
	prefix := "service.cache." + name
	return &tier{lruCache: newLRUCache(size), hit: prefix + ".hit", miss: prefix + ".miss", evict: prefix + ".evict"}
}

// get returns key's cached value, or runs build once per concurrent set of
// callers missing it and caches what it returns. The state reports
// CacheHit, CacheMiss (this caller ran build) or CacheShared (it received
// another caller's build).
//
// A leader builds under its own request's context and budgets, so its
// cancellation, deadline or budget error need not be a waiter's: a waiter
// handed one while its own context is live retries — re-checking the
// cache and possibly building under its own — instead of inheriting it.
func (t *tier) get(ctx context.Context, key string, build func() (any, error)) (any, CacheState, error) {
	for {
		if v, ok := t.lruCache.Get(key); ok {
			obs.Count(ctx, t.hit, 1)
			return v, CacheHit, nil
		}
		v, err, leader := t.flight.Do(key, func() (any, error) {
			obs.Count(ctx, t.miss, 1)
			v, err := build()
			if err != nil {
				return nil, err
			}
			t.put(ctx, key, v)
			return v, nil
		})
		if leader {
			return v, CacheMiss, err
		}
		if err != nil && ctx.Err() == nil && (isContextErr(err) || errors.Is(err, modular.ErrBudgetExceeded)) {
			continue
		}
		return v, CacheShared, err
	}
}

// put caches v under key, counting the entries the bound pushes out.
func (t *tier) put(ctx context.Context, key string, v any) {
	if n := t.lruCache.Put(key, v); n > 0 {
		obs.Count(ctx, t.evict, int64(n))
	}
}

// isContextErr reports a context cancellation or deadline error.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// lruCache is a bounded, concurrency-safe LRU map with hit/miss/eviction
// counters — the map behind each tier. Entries are counted, not sized:
// the explored models dominate memory and their count is what the operator
// budgets for.
type lruCache struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type lruEntry struct {
	key string
	val any
}

func newLRUCache(max int) *lruCache {
	if max <= 0 {
		max = 1
	}
	return &lruCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached value and marks it most recently used.
func (c *lruCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(e)
	return e.Value.(*lruEntry).val, true
}

// Put stores the value, evicting the least recently used entries when the
// bound is exceeded, and returns how many entries were evicted (so callers
// can emit per-level eviction counters).
func (c *lruCache) Put(key string, v any) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.Value.(*lruEntry).val = v
		c.ll.MoveToFront(e)
		return 0
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: v})
	evicted := 0
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		c.evictions++
		evicted++
	}
	return evicted
}

// Purge drops every entry, keeping the hit/miss/eviction history — the
// cache-loss fault hook (fault.PointCacheEvictAll) and tests.
func (c *lruCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
}

// Len returns the current entry count.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time snapshot of one cache, surfaced through
// /v1/metrics.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
}

// Stats snapshots the counters.
func (c *lruCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.max,
	}
}
