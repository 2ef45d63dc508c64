// The client-side ETag cache backing Config.Revalidate: remembered plan
// responses keyed by the server's canonical response key, each with the
// strong ETag the daemon issued for it. Entries never go stale — the
// daemon's ETag is a pure function of the request — so the only
// invalidation is capacity eviction.
package client

import (
	"container/list"
	"net/http"
	"sync"

	"repro/api"
)

type revalEntry struct {
	key  string
	etag string
	// hdr is the header map a revalidation sends, If-None-Match etag
	// included, built once per entry (see revalHeader).
	hdr  http.Header
	resp api.PlanResponse
}

// revalCache is a small entry-capped LRU, safe for concurrent use.
type revalCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

func newRevalCache(capacity int) *revalCache {
	return &revalCache{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

func (c *revalCache) get(key string) (revalEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return revalEntry{}, false
	}
	c.ll.MoveToFront(el)
	return *el.Value.(*revalEntry), true
}

func (c *revalCache) put(key, etag string, resp api.PlanResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*revalEntry)
		e.etag, e.hdr, e.resp = etag, revalHeader(etag), resp
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&revalEntry{key: key, etag: etag, hdr: revalHeader(etag), resp: resp})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*revalEntry).key)
	}
}

func (c *revalCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
