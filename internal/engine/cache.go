package engine

import (
	"fmt"
	"sync"

	"ken/internal/obs"
)

// Cache is a keyed, concurrency-safe, single-flight artifact store. The
// first Do for a key runs the build function; concurrent callers for the
// same key block until that build finishes and then share its result, so an
// expensive artifact (a generated trace, a fitted model, a clique
// partition) is produced exactly once per key no matter how many cells race
// for it.
//
// Results are held for the cache's lifetime and must be treated as
// immutable by every consumer — callers that need private mutable state
// clone what the cache hands out (model.Model.Clone is the canonical
// example).
type Cache struct {
	mu      sync.Mutex
	flights map[string]*flight

	mHits   obs.Counter // engine_cache_hits_total
	mMisses obs.Counter // engine_cache_misses_total
}

// flight is one key's build: done closes when val/err are final.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache builds an empty cache; ob may be nil.
func NewCache(ob *obs.Observer) *Cache {
	reg := ob.Registry()
	return &Cache{
		flights: map[string]*flight{},
		mHits:   reg.Counter("engine_cache_hits_total"),
		mMisses: reg.Counter("engine_cache_misses_total"),
	}
}

// Do returns the cached value for key, building it with build on first use.
// Errors are cached alongside values: builds are expected to be
// deterministic, so retrying a failed build would fail identically.
func (c *Cache) Do(key string, build func() (any, error)) (any, error) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.mHits.Inc()
		<-f.done
		return f.val, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.mMisses.Inc()
	f.val, f.err = build()
	close(f.done)
	return f.val, f.err
}

// Len returns the number of keys ever built or in flight.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flights)
}

// Get is the typed wrapper around Cache.Do: it builds a T on first use and
// type-asserts on hits, failing loudly when two call sites collide on one
// key with different types.
func Get[T any](c *Cache, key string, build func() (T, error)) (T, error) {
	v, err := c.Do(key, func() (any, error) { return build() })
	if err != nil {
		var zero T
		return zero, err
	}
	t, ok := v.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("engine: cache key %q holds %T, not %T", key, v, zero)
	}
	return t, nil
}
