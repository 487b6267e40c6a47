package server

import (
	"container/list"
	"sync"
)

// lruCache memoizes normalized-key lookups on the read path. The hot exact
// path never touches it (exact hits resolve through the immutable index with
// no locks at all); the cache only fronts the normalized fallback, which is
// one key fold and a map lookup (plus, once per index, building the folded
// maps), so a plain mutex is contention-appropriate.
type lruCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List
	items  map[string]*list.Element
	hits   uint64
	misses uint64
}

type lruEntry struct {
	key string
	val []Match
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached matches for key and whether they were present.
func (c *lruCache) get(key string) ([]Match, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put stores matches under key, evicting the least recently used entry when
// the cache is full.
func (c *lruCache) put(key string, val []Match) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// purge drops every entry; called when a new snapshot is published, since
// cached answers belong to the superseded index.
func (c *lruCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
}

// stats returns hit/miss counters and the current size.
func (c *lruCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}
