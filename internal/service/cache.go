package service

import "container/list"

// lru is the bounded least-recently-used result cache, keyed by the
// content-addressed request key. Every cached key answers explain and
// query requests and serves as a delta base until it is evicted. It is
// not self-locking: the Service guards it with its own mutex, which
// also makes the check-then-register singleflight window atomic. A
// max of 0 disables it.
type lru struct {
	max       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	evictions uint64
}

type lruEntry struct {
	key string
	res *Result
}

func newLRU(max int) *lru {
	return &lru{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the result under key and marks it most recently used.
func (c *lru) get(key string) (*Result, bool) {
	if c.max <= 0 {
		return nil, false
	}
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

// add inserts a result, evicting the least recently used entry when
// the cache is full.
func (c *lru) add(key string, res *Result) {
	if c.max <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).res = res
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, res: res})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		c.evictions++
	}
}

func (c *lru) len() int { return c.ll.Len() }
