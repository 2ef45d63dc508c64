package serve

import (
	"sync"

	loopmap "repro"
	"repro/internal/lru"
	"repro/internal/persist"
)

// planCache is a content-addressed LRU over base keys (plans built with
// CubeDim = -1). It holds recipes, never plans: an entry is the key, its
// canonical payload and a reference to its Π-stage. Algorithm 1, the TIG
// and Algorithm 2 are pure functions of the stage and the request's
// options, so every use of a held key builds its plan from the entry's
// stage (Algorithm 1 onward) and answers a hit. A key loaded from a
// durable record (warm restart, replica ingest) is a stage-less recipe:
// key and payload only. Its first use takes the stage from the stage
// cache, or builds it, and attaches it.
//
// Plans that differ only in Algorithm 1's options share one Π-stage
// (enumeration, schedule, projection), kept once per stage key in stages;
// a Π-stage is a pure function of its stage key, so every entry refers to
// the one cached there, and a copy a racing leader built is dropped. A
// stage is charged to the budget once, when the first entry on it enters,
// and released when the last such entry is evicted; it has no LRU
// position of its own. Capacity is accounted in estimated bytes (see
// entryBytes and stageBytes), not entry counts, because stage size varies
// by orders of magnitude across kernels and sizes.
type planCache struct {
	mu     sync.Mutex
	lru    *lru.Cache[*recipe]
	stages map[string]*stageEntry
}

// recipe is what the cache holds for a key.
type recipe struct {
	// stage is the entry's Π-stage, nil while the entry is a stage-less
	// recipe.
	stage *stageEntry
	// payload is the canonical request the plan is computed from — the
	// compact durable encoding the persist WAL stores (the plan itself is
	// a pure function of it, so a loaded record is a recipe, not a
	// deserialized plan). Nil when persistence is disabled.
	payload []byte
}

// stageEntry is one cached Π-stage and the number of cached entries that
// reference it.
type stageEntry struct {
	key   string
	stage *loopmap.Stage
	refs  int
	bytes int64
}

func newPlanCache(maxBytes int64) *planCache {
	c := &planCache{stages: map[string]*stageEntry{}}
	c.lru = lru.New(maxBytes, c.release)
	return c
}

// get looks key up and promotes it to most recent. A held key returns
// the Π-stage its plan is built on, nil for a stage-less recipe.
func (c *planCache) get(key string) (st *loopmap.Stage, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.lru.Get(key)
	if ok && r.stage != nil {
		st = r.stage.stage
	}
	return st, ok
}

// stage returns the cached Π-stage for a stage key, if a cached entry
// still references it.
func (c *planCache) stage(stageKey []byte) (*loopmap.Stage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	se, ok := c.stages[string(stageKey)]
	if !ok {
		return nil, false
	}
	return se.stage, true
}

// put inserts a recipe for key: its payload and the Π-stage st, which is
// cached under stageKey unless a stage is already cached there (then st
// is dropped). A nil st inserts a stage-less recipe. It evicts
// least-recently-used entries until the byte budget holds again; the
// newest entry itself is never evicted, so a single oversized entry
// still caches (and evicts everything else). It returns the number of
// evictions and whether key is new; a held key is only promoted.
func (c *planCache) put(key string, stageKey []byte, st *loopmap.Stage, payload []byte) (evicted int, added bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.lru.Get(key); ok {
		return 0, false
	}
	r := &recipe{payload: payload}
	if st != nil {
		c.attachStage(r, stageKey, st)
	}
	return c.lru.Add(key, r, entryBytes(key, payload))
}

// attachStage points r at the stage cached under stageKey, first caching
// st there and charging it to the budget when no stage is. Only then is
// the key's string made. c.mu must be held.
func (c *planCache) attachStage(r *recipe, stageKey []byte, st *loopmap.Stage) {
	se := c.stages[string(stageKey)]
	if se == nil {
		k := string(stageKey)
		se = &stageEntry{key: k, stage: st, bytes: stageEntryBytes(k, st)}
		c.stages[k] = se
		c.lru.Charge(se.bytes)
	}
	se.refs++
	r.stage = se
}

// attach points the stage-less recipe held under key at the Π-stage st
// its use resolved, as put does, then evicts least-recently-used entries
// until the budget holds again (never the last one). It returns the
// number of evictions; a key evicted meanwhile, or one already on a
// stage, is left as it is.
func (c *planCache) attach(key string, stageKey []byte, st *loopmap.Stage) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.lru.Peek(key)
	if !ok || r.stage != nil {
		return 0
	}
	c.attachStage(r, stageKey, st)
	return c.lru.Trim()
}

// remove drops the entry cached under key, if any.
func (c *planCache) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Remove(key)
}

// release is the LRU's eviction hook: an entry that leaves the cache
// drops its stage reference, and the last reference uncaches the stage
// and its charge. c.mu is held.
func (c *planCache) release(_ string, r *recipe) {
	if se := r.stage; se != nil {
		if se.refs--; se.refs == 0 {
			delete(c.stages, se.key)
			c.lru.Charge(-se.bytes)
		}
	}
}

// records dumps the live entries as durable records, least-recently-used
// first, so a replay or a receiver re-inserts them in recency order and
// the warmest entries survive any budget eviction on the way. Entries
// without a payload (cached before persistence was enabled) are skipped.
func (c *planCache) records() []persist.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]persist.Record, 0, c.lru.Len())
	c.lru.Walk(func(key string, r *recipe) {
		if r.payload != nil {
			out = append(out, persist.Record{Key: key, Value: r.payload})
		}
	})
	return out
}

// stats returns the current byte and entry footprint.
func (c *planCache) stats() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Cost(), c.lru.Len()
}

// allocBytes is the heap a byte buffer of length n takes: the allocator
// rounds small objects up to a size class, here to 16 bytes.
func allocBytes(n int) int64 {
	return int64(n+15) &^ 15
}

// entryBytes is what an entry is charged besides its stage: the key and
// payload bytes and 152 B for the rest. An entry pins about 120 B of
// that: its LRU node (48 B), its recipe (32 B) and its slot in the map
// (about 40 B with the map's spare capacity). The 32 B over are slack
// that keeps a configured budget admitting as many recipes as it was
// sized for.
func entryBytes(key string, payload []byte) int64 {
	return allocBytes(len(key)) + allocBytes(len(payload)) + 152
}

// stageEntryBytes estimates what a stage cached under key pins: the
// stage itself (stageBytes), the key's bytes, the stageEntry (48 B) and
// its slot in the stages map (about 40 B).
func stageEntryBytes(key string, st *loopmap.Stage) int64 {
	return stageBytes(st) + allocBytes(len(key)) + 48 + 40
}

// stageBytes estimates the resident size of a Π-stage from what it
// holds: the projected points with their fibers, point index and line
// graph, and the kernel the stage was built from (its nest, vectors and
// semantics' data, see Kernel.RetainedBytes). A cached stage is compact
// and nothing builds its vertex set, so its charge is fixed when it is
// inserted. A stage holds no per-vertex table, and its per-point tables
// are flat: the projected points one column of n coordinates per point,
// fibers one (X0, T0, Len) triple per projection line, and the line
// graph one int32 (target, arc count) pair per line and dependence. The
// cache budget compares these sums against its byte limit, so they
// should track the heap the cached stages actually pin.
func stageBytes(st *loopmap.Stage) int64 {
	const (
		fiberBytes   = 16 // one project.Fiber
		lineArcBytes = 8  // one project.LineArc
	)
	dims := int64(st.Structure.Nest.Dims)
	ps := st.Projected
	b := int64(ps.NumPoints()) * (dims*8 + fiberBytes)
	b += ps.IndexBytes() + int64(len(ps.Arcs))*lineArcBytes
	// Algorithm 1's per-stage inputs, which the stage's plans share:
	// per dependence one project.Dep (64 B), a lattice stride and an
	// auxiliary set of about one more Dep.
	b += int64(len(ps.Deps)) * 136
	b += st.Kernel.RetainedBytes()
	return b + 256 + 144 // fixed struct overhead, the inputs' included
}
