package server

import (
	"container/list"
	"sync"
)

// lruCache is a small thread-safe LRU for query results. Keys are
// canonicalized request strings (see seedsKey and entrySource.memo), so two
// requests naming the same seed set in different orders share one entry.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[string]*list.Element

	hits, misses uint64
}

type lruEntry struct {
	key   string
	value any
}

// newLRUCache returns a cache holding up to capacity entries; capacity <= 0
// disables caching (every Get misses — and counts as a miss in Stats, so a
// cacheless server still reports its uncached traffic — and Put is a no-op).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

func (c *lruCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		c.misses++
		return nil, false
	}
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

func (c *lruCache) Put(key string, value any) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).value = value
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, value: value})
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Stats returns cumulative hit/miss counters and the current size.
func (c *lruCache) Stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}
