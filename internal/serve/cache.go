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
// in estimated bytes (see stageBytes and partitionBytes), not entry
// counts, because plan size varies by orders of magnitude across kernels
// and sizes.
//
// Plans that differ only in Algorithm 1's options share one Π-stage
// (enumeration, schedule, projection), kept once per stage key in stages.
// A stage is charged to the budget once, when the first plan built on it
// enters, and released when the last such plan is evicted; it has no LRU
// position of its own. A plan whose stage is a different copy from the
// one cached under its stage key (two leaders raced to build it) is
// charged its own copy instead.
type planCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	stages   map[string]*stageEntry
}

type cacheEntry struct {
	key   string
	plan  *loopmap.Plan
	bytes int64
	// stageKey and stage name the shared stage the plan is charged to;
	// stage is nil when the plan is charged its own copy.
	stageKey string
	stage    *stageEntry
	// payload is the canonical request the plan was computed from — the
	// compact durable encoding the persist WAL stores (the plan itself is
	// a pure function of it, so recovery recomputes instead of
	// deserializing megabytes). Nil when persistence is disabled.
	payload []byte
}

// stageEntry is one cached Π-stage and the number of cached plans that
// reference it.
type stageEntry struct {
	stage *loopmap.Stage
	refs  int
	bytes int64
}

func newPlanCache(maxBytes int64) *planCache {
	return &planCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		stages:   map[string]*stageEntry{},
	}
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

// stage returns the cached Π-stage for a stage key, if a cached plan
// still references it.
func (c *planCache) stage(stageKey string) (*loopmap.Stage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	se, ok := c.stages[stageKey]
	if !ok {
		return nil, false
	}
	return se.stage, true
}

// put inserts a base plan under key, sharing the stage cached under
// stageKey when the plan was built on it, and evicts least-recently-used
// entries until the byte budget holds again; the newest entry itself is
// never evicted, so a single oversized plan still caches (and evicts
// everything else). It returns the number of evictions.
func (c *planCache) put(key, stageKey string, p *loopmap.Plan, payload []byte) int {
	pb := partitionBytes(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return 0
	}
	e := &cacheEntry{key: key, plan: p, bytes: pb, stageKey: stageKey, payload: payload}
	se := c.stages[stageKey]
	if se == nil {
		st := p.Stage()
		se = &stageEntry{stage: st, bytes: stageBytes(st)}
		c.stages[stageKey] = se
		c.bytes += se.bytes
	}
	if se.stage.Projected == p.Projected {
		se.refs++
		e.stage = se
	} else {
		// A racing leader built its own copy of the stage.
		e.bytes += stageBytes(p.Stage())
	}
	c.items[key] = c.ll.PushFront(e)
	c.bytes += e.bytes
	return c.evictOverBudget()
}

// chargeVertices re-charges the stage of the plan cached under key once
// running a plan on it has built the stage's vertex set, then evicts
// least-recently-used entries until the budget holds again (never the
// last one). It returns the number of evictions; an uncached key is a
// no-op.
func (c *planCache) chargeVertices(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return 0
	}
	e := el.Value.(*cacheEntry)
	if se := e.stage; se != nil {
		b := stageBytes(se.stage)
		c.bytes += b - se.bytes
		se.bytes = b
	} else {
		b := partitionBytes(e.plan) + stageBytes(e.plan.Stage())
		c.bytes += b - e.bytes
		e.bytes = b
	}
	return c.evictOverBudget()
}

// evictOverBudget evicts least-recently-used plans until the byte budget
// holds or one plan is left, and returns how many it evicted. c.mu must
// be held.
func (c *planCache) evictOverBudget() int {
	evicted := 0
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		c.evictOldest()
		evicted++
	}
	return evicted
}

// evictOldest removes the least-recently-used plan and uncharges it, and
// its shared stage when this was the stage's last plan. c.mu must be
// held.
func (c *planCache) evictOldest() {
	oldest := c.ll.Back()
	c.ll.Remove(oldest)
	e := oldest.Value.(*cacheEntry)
	delete(c.items, e.key)
	c.bytes -= e.bytes
	if se := e.stage; se != nil {
		if se.refs--; se.refs == 0 {
			delete(c.stages, e.stageKey)
			c.bytes -= se.bytes
		}
	}
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

// stageBytes estimates the resident size of a Π-stage from what it
// holds: the projected points with their fibers, point index and line
// graph, and the vertex set (one flat coordinate buffer plus a slice
// header per vertex) only while the structure holds it. A cached stage is
// compact, so V is charged once a simulation builds it (see
// chargeVertices). A stage holds no other per-vertex table, and its
// per-point tables are flat: the projected points one column of n
// coordinates per point, fibers one (X0, T0, Len) triple per projection
// line, and the line graph one int32 (target, arc count) pair per line
// and dependence. The cache budget compares these sums against its byte
// limit, so they should track the heap the cached stages and plans
// actually pin.
func stageBytes(st *loopmap.Stage) int64 {
	const (
		sliceHeader  = 24
		fiberBytes   = 24 // one project.Fiber
		lineArcBytes = 8  // one project.LineArc
	)
	dims := int64(st.Structure.Nest.Dims)
	var b int64
	if st.Structure.Materialized() {
		b = int64(st.Structure.Len()) * (dims*8 + sliceHeader)
	}
	ps := st.Projected
	b += int64(ps.NumPoints()) * (dims*8 + fiberBytes)
	b += ps.IndexBytes() + int64(len(ps.Arcs))*lineArcBytes
	// Algorithm 1's per-stage inputs, which the stage's plans share:
	// per dependence one project.Dep (64 B), a lattice stride and an
	// auxiliary set of about one more Dep.
	b += int64(len(ps.Deps)) * 136
	return b + 256 + 144 // fixed struct overhead, the inputs' included
}

// partitionBytes estimates what a plan holds beyond its stage: the
// partitioning's flat tables and the TIG, each of which knows its own
// layout. Blocks are derived from the groups.
func partitionBytes(p *loopmap.Plan) int64 {
	// Fixed: the Plan struct (112 B). The grouping and auxiliary vectors
	// are the stage's (see stageBytes).
	return p.Partitioning.RetainedBytes() + p.TIG.RetainedBytes() + 112
}
