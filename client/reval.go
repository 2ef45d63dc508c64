// The client-side ETag cache backing Config.Revalidate: remembered plan
// responses keyed by the server's canonical response key, each with the
// strong ETag the daemon issued for it. Entries never go stale — the
// daemon's ETag is a pure function of the request — so the only
// invalidation is capacity eviction.
package client

import (
	"net/http"
	"sync"

	"repro/api"
	"repro/internal/lru"
)

type revalEntry struct {
	etag string
	// hdr is the header map a revalidation sends, If-None-Match etag
	// included, built once per entry (see revalHeader).
	hdr  http.Header
	resp api.PlanResponse
}

// revalCache is a small entry-capped LRU, safe for concurrent use: every
// entry costs 1 against a budget of its capacity.
type revalCache struct {
	mu  sync.Mutex
	lru *lru.Cache[*revalEntry]
}

func newRevalCache(capacity int) *revalCache {
	return &revalCache{lru: lru.New[*revalEntry](int64(capacity), nil)}
}

func (c *revalCache) get(key string) (revalEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.Get(key)
	if !ok {
		return revalEntry{}, false
	}
	return *e, true
}

// put remembers resp and its etag under key; a key already held is
// updated in place.
func (c *revalCache) put(key, etag string, resp api.PlanResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.lru.Get(key); ok {
		e.etag, e.hdr, e.resp = etag, revalHeader(etag), resp
		return
	}
	c.lru.Add(key, &revalEntry{etag: etag, hdr: revalHeader(etag), resp: resp}, 1)
}

func (c *revalCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
