package service

import "container/list"

// lru is a bounded least-recently-used map keyed by the
// content-addressed request key. The Service keeps two: completed
// results, and the front-end snapshots that back delta requests (every
// response key a client has seen is a usable delta base until
// evicted). It is not self-locking: the Service guards both with its
// own mutex, which also makes the check-then-register singleflight
// window atomic. A max of 0 disables it.
type lru[V any] struct {
	max       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	evictions uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the value under key and marks it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	var zero V
	if c.max <= 0 {
		return zero, false
	}
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add inserts a value, evicting the least recently used entry when
// the cache is full.
func (c *lru[V]) add(key string, val V) {
	if c.max <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
		c.evictions++
	}
}

func (c *lru[V]) len() int { return c.ll.Len() }
