package exec

import (
	"sync"

	"m3d/internal/obs"
)

// Cache is a concurrency-safe memoization table with single-flight
// semantics: for each key the compute function runs exactly once, even
// under concurrent Do calls; later (and concurrent) callers share the
// stored value and error. The zero value is ready to use and unbounded.
// Results must be treated as shared/immutable by callers.
//
// A Cache can opt into an LRU eviction policy with Bound: the
// least-recently-used completed entries are evicted once the entry count
// exceeds the capacity. In-flight computations count as entries but are
// never evicted — evicting them would admit a second concurrent
// computation of the same key, breaking the single-flight contract — so
// the entry count can transiently exceed the capacity only while more
// than the capacity's worth of distinct keys are computing
// simultaneously. Do/DoMetered callers always receive the value they
// waited for, evicted or not.
//
// Instrument attaches the policy's accounting to an obs.Registry
// (cache.evictions counter, cache.entries gauge). Both Bound and
// Instrument must be called before the cache is shared across
// goroutines.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*cacheEntry[K, V]

	// LRU policy (capacity ≤ 0 = unbounded). head is the most recently used
	// completed entry; tail the least.
	capacity int
	head     *cacheEntry[K, V]
	tail     *cacheEntry[K, V]

	// Accounting sinks (nil-safe, see obs).
	evictions *obs.Counter
	entries   *obs.Gauge
}

type cacheEntry[K comparable, V any] struct {
	key  K
	once sync.Once
	val  V
	err  error

	// Guarded by Cache.mu.
	linked     bool
	prev, next *cacheEntry[K, V]
}

// NewLRU returns a cache bounded at capacity entries.
func NewLRU[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{}
	c.Bound(capacity)
	return c
}

// Bound sets the cache's LRU policy: evict least-recently-used completed
// entries once more than capacity entries are interned. capacity ≤ 0
// removes the bound (the zero-value behaviour). Set the policy before
// the cache is shared across goroutines.
func (c *Cache[K, V]) Bound(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = capacity
	c.evictLocked()
}

// Instrument routes the cache's accounting into r: evictions increment
// the cache.evictions counter and the live entry count moves the
// cache.entries gauge (by deltas, so several caches sharing one registry
// sum naturally). A nil registry detaches both.
func (c *Cache[K, V]) Instrument(r *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictions = r.Counter("cache.evictions")
	c.entries = r.Gauge("cache.entries")
}

// Do returns the memoized value for key, computing it with fn on first
// use. Errors are memoized too: a failed computation is not retried.
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	return c.DoMetered(key, nil, nil, fn)
}

// DoMetered is Do with hit/miss counters (nil counters are no-ops). The
// caller that interns the key counts one miss; every other caller —
// concurrent single-flight waiters included — counts one hit, so at any
// pool width misses equals the number of distinct keys computed
// (re-computations after eviction or Forget count as new misses).
func (c *Cache[K, V]) DoMetered(key K, hits, misses *obs.Counter, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*cacheEntry[K, V])
	}
	e, ok := c.m[key]
	if !ok {
		e = &cacheEntry[K, V]{key: key}
		c.m[key] = e
		c.entries.Add(1)
		c.evictLocked()
	} else if e.linked {
		c.moveToFrontLocked(e)
	}
	c.mu.Unlock()
	if ok {
		hits.Add(1)
	} else {
		misses.Add(1)
	}
	e.once.Do(func() {
		e.val, e.err = fn()
		c.complete(e)
	})
	return e.val, e.err
}

// complete settles a finished computation under the policy: link the
// entry into the LRU list and evict down to capacity. An entry Forgotten
// (or evicted is impossible — in-flight entries are never linked) while
// computing is left untouched: it was already dropped from the map.
func (c *Cache[K, V]) complete(e *cacheEntry[K, V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[e.key] != e {
		return
	}
	c.pushFrontLocked(e)
	c.evictLocked()
}

// evictLocked drops least-recently-used completed entries until the
// entry count fits the capacity (or nothing evictable remains). Requires
// c.mu held.
func (c *Cache[K, V]) evictLocked() {
	if c.capacity <= 0 {
		return
	}
	for len(c.m) > c.capacity && c.tail != nil {
		e := c.tail
		c.unlinkLocked(e)
		delete(c.m, e.key)
		c.evictions.Add(1)
		c.entries.Add(-1)
	}
}

func (c *Cache[K, V]) pushFrontLocked(e *cacheEntry[K, V]) {
	e.linked = true
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) unlinkLocked(e *cacheEntry[K, V]) {
	if !e.linked {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.linked = false
}

func (c *Cache[K, V]) moveToFrontLocked(e *cacheEntry[K, V]) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

// Forget drops the entry for key, so the next Do re-computes it. A
// server coalescing requests through the cache calls this when a
// computation fails with a non-deterministic error (cancellation, an
// overload) so one canceled caller does not poison the key for every
// later request; concurrent single-flight waiters already attached to
// the old entry still share its result.
func (c *Cache[K, V]) Forget(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return
	}
	c.unlinkLocked(e)
	delete(c.m, key)
	c.entries.Add(-1)
}

// Len reports how many keys have been interned (including in-flight
// computations).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
