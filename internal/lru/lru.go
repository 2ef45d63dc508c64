// Package lru is a least-recently-used map from string keys to values,
// each charged a cost against a budget. The daemon's plan and response
// caches and the client's revalidation cache are built on it; each keeps
// its own lock, since a Cache is not safe for concurrent use.
package lru

// Cache holds values by key in recency order. Adding an entry evicts the
// least recently used ones until the total cost fits the budget again,
// but never the newest entry, so one entry larger than the whole budget
// still caches.
type Cache[V any] struct {
	items   map[string]*entry[V]
	root    entry[V] // root.next is the newest entry, root.prev the oldest
	budget  int64
	cost    int64
	onEvict func(key string, v V)
}

type entry[V any] struct {
	key        string
	value      V
	cost       int64
	prev, next *entry[V]
}

// New returns an empty cache with the given cost budget. onEvict, which
// may be nil, sees every entry that leaves the cache, evicted or
// removed, once it has left; it may Charge, but not change the entries.
func New[V any](budget int64, onEvict func(key string, v V)) *Cache[V] {
	c := &Cache[V]{items: map[string]*entry[V]{}, budget: budget, onEvict: onEvict}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// Get returns the value cached under key and makes it the newest entry.
func (c *Cache[V]) Get(key string) (V, bool) {
	return c.use(c.items[key])
}

// GetBytes is Get for a key still in a byte buffer: the map index
// converts it without allocating.
func (c *Cache[V]) GetBytes(key []byte) (V, bool) {
	return c.use(c.items[string(key)])
}

// Peek is Get without the promotion.
func (c *Cache[V]) Peek(key string) (v V, ok bool) {
	if e := c.items[key]; e != nil {
		v, ok = e.value, true
	}
	return v, ok
}

func (c *Cache[V]) use(e *entry[V]) (v V, ok bool) {
	if e != nil {
		c.unlink(e)
		c.pushFront(e)
		v, ok = e.value, true
	}
	return v, ok
}

// Add caches v under key as the newest entry, charged cost, then evicts
// as Trim does. A key already cached only becomes the newest entry; v is
// dropped. It returns the number of evictions and whether key is new.
func (c *Cache[V]) Add(key string, v V, cost int64) (evicted int, added bool) {
	if e := c.items[key]; e != nil {
		c.use(e)
		return 0, false
	}
	e := &entry[V]{key: key, value: v, cost: cost}
	c.items[key] = e
	c.pushFront(e)
	c.cost += cost
	return c.Trim(), true
}

// Charge adds delta to the total cost, evicting nothing: a cost no
// single entry carries, such as one several entries share.
func (c *Cache[V]) Charge(delta int64) { c.cost += delta }

// Trim evicts the least recently used entries until the total cost fits
// the budget or one entry is left, and returns how many it evicted.
func (c *Cache[V]) Trim() int {
	n := 0
	for ; c.cost > c.budget && len(c.items) > 1; n++ {
		c.RemoveOldest()
	}
	return n
}

// Remove drops the entry cached under key, if any.
func (c *Cache[V]) Remove(key string) {
	if e := c.items[key]; e != nil {
		c.remove(e)
	}
}

// RemoveOldest drops the least recently used entry, if any.
func (c *Cache[V]) RemoveOldest() {
	if len(c.items) > 0 {
		c.remove(c.root.prev)
	}
}

// Walk calls fn on every entry, oldest first. fn must not change the
// cache.
func (c *Cache[V]) Walk(fn func(key string, v V)) {
	for e := c.root.prev; e != &c.root; e = e.prev {
		fn(e.key, e.value)
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int { return len(c.items) }

// Cost returns the total cost: every entry's, plus Charge's.
func (c *Cache[V]) Cost() int64 { return c.cost }

func (c *Cache[V]) remove(e *entry[V]) {
	c.unlink(e)
	delete(c.items, e.key)
	c.cost -= e.cost
	if c.onEvict != nil {
		c.onEvict(e.key, e.value)
	}
}

func (c *Cache[V]) pushFront(e *entry[V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache[V]) unlink(e *entry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}
