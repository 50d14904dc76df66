// Package lru is the one mutex-guarded LRU behind every row cache: the
// oracle engine's per-source caches, the shard router's distance-vector
// cache and the registry's hot-pair cache. One implementation, one stats
// shape, counted the same way everywhere.
package lru

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of one cache.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Len       int   `json:"len"`
	Cap       int   `json:"cap"`
}

// Cache is a mutex-guarded LRU map from a key to a cached query result.
// A capacity of 0 disables storage but still counts misses, so stats stay
// meaningful for cache-less configurations; a nil *Cache is a fully
// disabled cache (all methods no-ops), so callers never branch on
// configuration.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recent; values are *entry[K, V]
	items     map[K]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding up to capacity entries (negative clamps
// to 0: disabled storage, counted misses).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	return zero, false
}

// Add inserts or refreshes key, evicting the least recently used entries
// over capacity.
func (c *Cache[K, V]) Add(key K, val V) {
	if c == nil || c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry[K, V]).key)
		c.evictions++
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
}

// DeleteFunc drops every entry whose key satisfies del. Like Purge, it
// does not count the dropped entries as evictions. Safe on a nil cache.
func (c *Cache[K, V]) DeleteFunc(del func(K) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if k := el.Value.(*entry[K, V]).key; del(k) {
			c.ll.Remove(el)
			delete(c.items, k)
		}
		el = next
	}
}

// Purge drops every cached entry (counters are kept — purged entries are
// not evictions). Safe on a nil cache.
func (c *Cache[K, V]) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[K]*list.Element)
}

// Snapshot returns the cache counters. Safe on a nil cache.
func (c *Cache[K, V]) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Len: c.ll.Len(), Cap: c.cap,
	}
}
