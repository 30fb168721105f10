package serve

import (
	"container/list"
	"sync"

	"repro/internal/ann"
)

// lruCache is a mutex-guarded LRU of token-keyed ANN neighbor lists.
// The serving hot path is read-mostly with small values, so a single
// lock in front of a map plus intrusive recency list is simpler than
// sharding and fast enough — the search it avoids costs orders of
// magnitude more than the critical section.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val []ann.Result
}

func newLRU(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached value and marks it most recently used. The
// returned value is shared; callers must not mutate it.
func (c *lruCache) get(key string) ([]ann.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes a value, evicting the least recently used
// entry when full.
func (c *lruCache) put(key string, val []ann.Result) {
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
