package serve

import (
	"container/list"
	"sync"

	loopmap "repro"
	"repro/internal/persist"
)

// planCache is a content-addressed LRU over *base* plans (planned with
// CubeDim = -1, the expensive enumerate→schedule→partition→TIG artifact).
// One cached partitioning serves every cube dimension through Plan.Remap,
// so the mapping phase is never a cache dimension. Capacity is accounted
// in estimated bytes (see planBytes), not entry counts, because plan size
// varies by orders of magnitude across kernels and sizes.
type planCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

type cacheEntry struct {
	key   string
	plan  *loopmap.Plan
	bytes int64
	// payload is the canonical request the plan was computed from — the
	// compact durable encoding the persist WAL stores (the plan itself is
	// a pure function of it, so recovery recomputes instead of
	// deserializing megabytes). Nil when persistence is disabled.
	payload []byte
}

func newPlanCache(maxBytes int64) *planCache {
	return &planCache{maxBytes: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached base plan for key, promoting it to most recent.
func (c *planCache) get(key string) (*loopmap.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

// put inserts a base plan and evicts least-recently-used entries until the
// byte budget holds again; the newest entry itself is never evicted, so a
// single oversized plan still caches (and evicts everything else). It
// returns the number of evictions.
func (c *planCache) put(key string, p *loopmap.Plan, payload []byte) int {
	b := planBytes(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return 0
	}
	el := c.ll.PushFront(&cacheEntry{key: key, plan: p, bytes: b, payload: payload})
	c.items[key] = el
	c.bytes += b
	evicted := 0
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		oldest := c.ll.Back()
		e := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= e.bytes
		evicted++
	}
	return evicted
}

// records dumps the live entries as durable records, least-recently-used
// first, so a replay re-inserts them in recency order and the warmest
// entries survive any budget eviction during recovery. Entries without a
// payload (cached before persistence was enabled) are skipped.
func (c *planCache) records() []persist.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]persist.Record, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		if e.payload != nil {
			out = append(out, persist.Record{Key: e.key, Value: e.payload})
		}
	}
	return out
}

// stats returns the current byte and entry footprint.
func (c *planCache) stats() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, c.ll.Len()
}

// planBytes estimates the resident size of a base plan from what it
// holds: the vertex set (one flat coordinate buffer plus a slice header
// per vertex), the projected points with their fibers and point index,
// the partitioning's groups with their shared buffers and per-point group
// table, and the TIG. A plan holds no per-vertex table besides V: fibers
// are one (X0, T0, Len) triple per projection line, and blocks are
// derived from the groups. The cache budget compares these sums against
// its byte limit, so they should track the heap the cached plans actually
// pin.
func planBytes(p *loopmap.Plan) int64 {
	const (
		sliceHeader = 24
		fiberBytes  = 24  // one project.Fiber
		groupBytes  = 112 // a Group's fixed fields
		edgeBytes   = 24  // one TIGEdge
	)
	dims := int64(p.Structure.Nest.Dims)
	perVec := dims*8 + sliceHeader

	b := int64(len(p.Structure.V)) * perVec
	ps := p.Projected
	b += int64(len(ps.Points))*perVec + int64(len(ps.Fibers))*fiberBytes
	b += ps.IndexBytes()
	// GroupOf, and the members and slots that the groups carve from one
	// shared buffer of 2·|V^p| entries; each group's base and lattice
	// coordinates come from a second shared buffer.
	part := p.Partitioning
	b += int64(len(part.GroupOf)) * 3 * 8
	if len(part.Groups) > 0 {
		g := part.Groups[0]
		b += int64(len(part.Groups)) * (groupBytes + int64(len(g.Base)+len(g.Coords))*8)
	}
	// Each TIG edge carries its per-dependence weights; each block a load
	// and a row offset.
	nDeps := int64(len(p.Structure.D))
	b += int64(len(p.TIG.Edges))*(edgeBytes+8*nDeps) + int64(len(p.TIG.Loads))*16
	return b + 512 // fixed struct overhead
}
