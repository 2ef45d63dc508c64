package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	loopmap "repro"
	"repro/api"
)

// testStage builds the Π-stage of l1 at the given size.
func testStage(t *testing.T, size int64) *loopmap.Stage {
	t.Helper()
	st, err := loopmap.PrepareCtx(context.Background(), loopmap.NewKernel("l1", size), loopmap.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// recipeBytes is what the cache charges for a recipe cached under key
// that holds its stage alone: the entry and the stage under its stage
// key.
func recipeBytes(key, stageKey string, st *loopmap.Stage) int64 {
	return entryBytes(key, nil) + stageEntryBytes(stageKey, st)
}

// putRecipe caches a recipe for key on st under stageKey, as a key's
// first use does, and returns the evictions.
func putRecipe(c *planCache, key, stageKey string, st *loopmap.Stage) int {
	ev, _ := c.put(key, []byte(stageKey), st, nil)
	return ev
}

// evictAll empties the cache through its own eviction path.
func evictAll(c *planCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.lru.Len() > 0 {
		c.lru.RemoveOldest()
	}
}

// TestPlanCacheChargesStageOnce: recipes on one stage charge it once,
// it stays while any of them is cached, and is released with the last.
func TestPlanCacheChargesStageOnce(t *testing.T) {
	st := testStage(t, 12)
	c := newPlanCache(1 << 30)
	want := stageEntryBytes("stage", st)
	key := func(i int) string { return fmt.Sprintf("merge=%d", i+1) }
	for i := range 3 {
		putRecipe(c, key(i), "stage", st)
		want += entryBytes(key(i), nil)
		if b, _ := c.stats(); b != want {
			t.Fatalf("after %d recipes: bytes = %d, want %d (stage charged once)", i+1, b, want)
		}
	}
	if got, ok := c.stage([]byte("stage")); !ok || got != st {
		t.Fatal("the cached stage is not the one the recipes were put on")
	}
	if n := c.stages["stage"].refs; n != 3 {
		t.Fatalf("stage refs = %d, want 3", n)
	}

	// Evicting the two oldest recipes keeps the stage; the last releases
	// it.
	c.mu.Lock()
	c.lru.RemoveOldest()
	c.lru.RemoveOldest()
	c.mu.Unlock()
	if b, _ := c.stats(); b != recipeBytes(key(2), "stage", st) {
		t.Fatalf("one recipe left: bytes = %d, want %d", b, recipeBytes(key(2), "stage", st))
	}
	if _, ok := c.stage([]byte("stage")); !ok {
		t.Fatal("stage released while a recipe still references it")
	}
	evictAll(c)
	if b, n := c.stats(); b != 0 || n != 0 || len(c.stages) != 0 {
		t.Fatalf("after evicting everything: bytes %d, entries %d, stages %d; want 0, 0, 0", b, n, len(c.stages))
	}
}

// TestPlanCacheRacingDuplicateStage: a key computed on a second copy of a
// cached stage (two leaders raced to build it) refers to the cached copy,
// which every later use of the key builds on; its own copy is dropped
// and never charged.
func TestPlanCacheRacingDuplicateStage(t *testing.T) {
	stA, stB := testStage(t, 12), testStage(t, 12)
	c := newPlanCache(1 << 30)
	putRecipe(c, "a", "stage", stA)
	putRecipe(c, "b", "stage", stB)
	want := stageEntryBytes("stage", stA) + entryBytes("a", nil) + entryBytes("b", nil)
	if got, _ := c.stats(); got != want {
		t.Fatalf("bytes = %d, want %d (the duplicate stage charged nothing)", got, want)
	}
	if n := c.stages["stage"].refs; n != 2 {
		t.Fatalf("stage refs = %d, want 2", n)
	}
	if st, ok := c.get("b"); !ok || st != stA {
		t.Fatal("b does not refer to the cached stage")
	}
	// Evicting a keeps the shared stage for b; evicting b releases it.
	c.mu.Lock()
	c.lru.RemoveOldest()
	c.mu.Unlock()
	if _, ok := c.stage([]byte("stage")); !ok {
		t.Fatal("stage released while b still references it")
	}
	evictAll(c)
	if got, n := c.stats(); got != 0 || n != 0 || len(c.stages) != 0 {
		t.Fatalf("after evicting everything: bytes %d, entries %d, stages %d; want 0, 0, 0", got, n, len(c.stages))
	}
}

// TestOneTouchKeysHoldNoPlan: keys computed once through the daemon leave
// recipes, entries that hold their stage and payload, charged the entry
// alone on top of their shared stages.
func TestOneTouchKeysHoldNoPlan(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	const n = 12
	for i := 0; i < n; i++ {
		req := &api.PlanRequest{Kernel: []string{"l1", "matvec", "stencil"}[i%3], Size: 10, MergeFactor: int64(1 + i/3)}
		if _, outcome, _, err := s.basePlan(ctx, req); err != nil || outcome != api.CacheMiss {
			t.Fatalf("%s: outcome %q, err %v; want a miss", req.Key(), outcome, err)
		}
	}
	var want int64
	s.cache.mu.Lock()
	s.cache.lru.Walk(func(key string, r *recipe) {
		want += entryBytes(key, r.payload)
	})
	for _, se := range s.cache.stages {
		want += se.bytes
	}
	s.cache.mu.Unlock()
	m := s.Metrics()
	if m.CacheEntries != n || cachedStages(s.cache) != 3 || m.PlanComputations != n || m.PlanRebuilds != 0 {
		t.Fatalf("%d entries on %d stages, %d computations, %d rebuilds; want %d on 3, %d, 0",
			m.CacheEntries, cachedStages(s.cache), m.PlanComputations, m.PlanRebuilds, n, n)
	}
	if m.CacheBytes != want {
		t.Fatalf("cache bytes %d, want %d (entries and stages only)", m.CacheBytes, want)
	}
}

func TestPlanCacheLRUOrder(t *testing.T) {
	sa, sb, sc := testStage(t, 4), testStage(t, 5), testStage(t, 6)
	// Budget for exactly two of these recipes.
	budget := recipeBytes("a", "stage-a", sa) + recipeBytes("b", "stage-b", sb) + recipeBytes("c", "stage-c", sc)/2
	c := newPlanCache(budget)

	putRecipe(c, "a", "stage-a", sa)
	putRecipe(c, "b", "stage-b", sb)
	// Touch a so b becomes the eviction candidate.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	if ev := putRecipe(c, "c", "stage-c", sc); ev == 0 {
		t.Fatal("inserting c should evict")
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	if st, _ := c.get("a"); st != sa {
		t.Fatal("a should have survived (recently used)")
	}
	if st, _ := c.get("c"); st != sc {
		t.Fatal("c should be cached (newest)")
	}
}

func TestPlanCacheNewestNeverEvicted(t *testing.T) {
	st := testStage(t, 6)
	c := newPlanCache(1) // smaller than any recipe
	putRecipe(c, "big", "stage", st)
	if got, _ := c.get("big"); got != st {
		t.Fatal("an oversized newest entry must still cache")
	}
	if _, n := c.stats(); n != 1 {
		t.Fatalf("entries = %d, want 1", n)
	}
}

func TestPlanCacheDuplicatePut(t *testing.T) {
	st := testStage(t, 4)
	c := newPlanCache(1 << 20)
	putRecipe(c, "k", "stage", st)
	putRecipe(c, "k", "stage", st)
	b1, n := c.stats()
	if n != 1 {
		t.Fatalf("entries = %d, want 1 after duplicate put", n)
	}
	if b1 != recipeBytes("k", "stage", st) {
		t.Fatalf("bytes = %d, want %d (no double counting)", b1, recipeBytes("k", "stage", st))
	}
}

func TestFlightGroupDeduplicates(t *testing.T) {
	var g flightGroup
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	var once sync.Once
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared, _ := g.do(context.Background(), "k", func() (any, error) {
				calls.Add(1)
				once.Do(func() { close(started) })
				<-release
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("v=%v err=%v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	<-started
	// Give every follower time to reach do() and block on the leader's
	// completion before releasing it (same approach as x/sync's tests).
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	if sharedCount.Load() != n-1 {
		t.Fatalf("shared = %d, want %d", sharedCount.Load(), n-1)
	}
}

func TestFlightGroupPropagatesError(t *testing.T) {
	var g flightGroup
	boom := errors.New("boom")
	_, err, _, _ := g.do(context.Background(), "k", func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// A failed flight is not cached: the next call runs again.
	v, err, _, _ := g.do(context.Background(), "k", func() (any, error) { return 1, nil })
	if err != nil || v.(int) != 1 {
		t.Fatalf("retry after failure: v=%v err=%v", v, err)
	}
}

// TestFlightGroupSurvivesPanickingLeader: a leader whose fn panics
// still releases its key. The panic reaches the leader's caller, a
// follower already waiting is woken with errLeaderPanicked instead of
// waiting out its deadline, and the next call for the key runs fn again.
func TestFlightGroupSurvivesPanickingLeader(t *testing.T) {
	var g flightGroup
	started, release := make(chan struct{}), make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		g.do(context.Background(), "k", func() (any, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	type result struct {
		err    error
		shared bool
	}
	follower := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, err, shared, _ := g.do(ctx, "k", func() (any, error) { return nil, errors.New("follower ran fn") })
		follower <- result{err, shared}
	}()
	// Give the follower time to block on the leader (see
	// TestFlightGroupDeduplicates).
	time.Sleep(50 * time.Millisecond)
	close(release)
	if r := <-leaderPanic; r != "boom" {
		t.Fatalf("leader recovered %v, want its panic", r)
	}
	if r := <-follower; !r.shared || !errors.Is(r.err, errLeaderPanicked) {
		t.Fatalf("follower: err %v (shared %v), want errLeaderPanicked", r.err, r.shared)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	v, err, shared, _ := g.do(ctx, "k", func() (any, error) { return 2, nil })
	if err != nil || shared || v.(int) != 2 {
		t.Fatalf("call after the panic: v=%v err=%v shared=%v, want a fresh run", v, err, shared)
	}
}

// missGridKey is one (kernel, size) of the miss-cold grid.
type missGridKey struct {
	kernel string
	size   int64
}

// missGridKeys is the miss-cold grid the byte estimates are checked on:
// every kernel, at sizes across the daemon's range.
func missGridKeys() []missGridKey {
	var keys []missGridKey
	for _, k := range []string{"convolution", "dct", "l1", "matvec", "stencil", "triangular"} {
		for size := int64(8); size <= 128; size += 15 {
			keys = append(keys, missGridKey{k, size})
		}
	}
	for _, k := range []string{"closure", "matmul", "sor2d"} {
		for size := int64(4); size <= 28; size += 4 {
			keys = append(keys, missGridKey{k, size})
		}
	}
	return keys
}

// TestSharedStageBytesTracksHeap: per miss-grid key (every kernel, sizes
// across the grid) one compact stage, as the daemon caches it, and
// recipes for merge factors 1–3 on it, all cached, so the stage is
// charged once.
// The cache's byte count must stay within [0.85, 1.30] of the live heap
// the stages and recipes pin, so the cache's byte budget bounds the
// memory it really holds.
func TestSharedStageBytesTracksHeap(t *testing.T) {
	checkBytesTrackHeap(t, func() (int64, any, string) {
		keys := missGridKeys()
		c := newPlanCache(1 << 40)
		ctx := context.Background()
		for _, k := range keys {
			kern, err := loopmap.LookupKernel(k.kernel, k.size)
			if err != nil {
				t.Fatal(err)
			}
			st, err := prepareStage(ctx, kern, loopmap.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			skey := fmt.Sprintf("%s/%d", k.kernel, k.size)
			for merge := int64(1); merge <= 3; merge++ {
				putRecipe(c, fmt.Sprintf("%s/merge=%d", skey, merge), skey, st)
			}
		}
		est, n := c.stats()
		if n != 3*len(keys) || len(c.stages) != len(keys) {
			t.Fatalf("cached %d recipes on %d stages, want %d on %d", n, len(c.stages), 3*len(keys), len(keys))
		}
		return est, c, fmt.Sprintf("%d recipes on %d shared stages, cache bytes", n, len(c.stages))
	})
}

// TestCompactStageBytesTracksHeap is TestSharedStageBytesTracksHeap on
// the daemon's own stages: every miss-grid key planned through the
// server at merge factors 1–10 (aux on and off by key), so each stage is
// compact and shared by ten recipes. The second case then serves one
// /v1/simulate per stage, which builds no V and leaves the charge as it
// is. In each, the cache's byte count must stay within the band of the
// live heap.
func TestCompactStageBytesTracksHeap(t *testing.T) {
	ctx := context.Background()
	keys := missGridKeys()
	simulateEach := func(s *Server) {
		for i, k := range keys {
			body := fmt.Sprintf(`{"kernel": %q, "size": %d, "no_aux": %v, "engine": "block"}`, k.kernel, k.size, i%2 == 1)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("simulate %s: %d %s", body, rec.Code, rec.Body)
			}
		}
	}
	for _, c := range []struct {
		simulate bool
		what     string
	}{
		{false, "recipes on compact stages"},
		{true, "recipes on stages after one simulation each"},
	} {
		if c.simulate {
			// Simulations leave transient plans' tables and response
			// buffers in the process-wide free lists, which no cached
			// stage pins: fill them on a throwaway server first.
			simulateEach(New(Config{CacheBytes: 1 << 40}))
		}
		s := New(Config{CacheBytes: 1 << 40})
		checkBytesTrackHeap(t, func() (int64, any, string) {
			for i, k := range keys {
				noAux := i%2 == 1
				for merge := int64(1); merge <= 10; merge++ {
					req := &api.PlanRequest{Kernel: k.kernel, Size: k.size, MergeFactor: merge, NoAux: noAux}
					if _, _, _, err := s.basePlan(ctx, req); err != nil {
						t.Fatal(err)
					}
				}
			}
			if c.simulate {
				simulateEach(s)
			}
			est, n := s.cache.stats()
			if n != 10*len(keys) || cachedStages(s.cache) != len(keys) {
				t.Fatalf("cached %d entries on %d stages, want %d on %d", n, cachedStages(s.cache), 10*len(keys), len(keys))
			}
			return est, s, fmt.Sprintf("%d %s, cache bytes", n, c.what)
		})
	}
}

// checkBytesTrackHeap runs build, which returns a byte estimate, what it
// built, and a label, and checks that the estimate is within
// [0.85, 1.30] of the live heap the built value pins, so the cache's
// byte budget bounds the memory the cached plans really hold.
func checkBytesTrackHeap(t *testing.T, build func() (est int64, keep any, what string)) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	est, keep, what := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(keep)
	ratio := float64(est) / float64(live)
	t.Logf("%s %d, live heap %d, ratio %.3f", what, est, live, ratio)
	if ratio < 0.85 || ratio > 1.30 {
		t.Fatalf("%s is %.3f× the live heap, want within [0.85, 1.30]", what, ratio)
	}
}

// BenchmarkBaseReuse times what a held key's use costs on the miss-cold
// grid: every kernel and size of missGridKeys at merge factors 1–10, one
// shared stage each, every key held as a recipe. Each use builds the
// plan from the stage (Algorithm 1 onward) and remaps it onto the
// request's cube (usePlan, which then releases both).
func BenchmarkBaseReuse(b *testing.B) {
	ctx := context.Background()
	s := New(Config{CacheBytes: 1 << 40})
	var grid []*api.PlanRequest
	for i, k := range missGridKeys() {
		kern, err := loopmap.LookupKernel(k.kernel, k.size)
		if err != nil {
			b.Fatal(err)
		}
		st, err := prepareStage(ctx, kern, loopmap.PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for merge := int64(1); merge <= 10; merge++ {
			cube := int(2 + merge%3)
			req := &api.PlanRequest{Kernel: k.kernel, Size: k.size, CubeDim: &cube, MergeFactor: merge, NoAux: i%2 == 1}
			s.cache.put(req.Key(), req.AppendStageKey(nil), st, nil)
			grid = append(grid, req)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if outcome, err := s.usePlan(ctx, grid[i%len(grid)], func(*loopmap.Plan) error { return nil }); err != nil || outcome != api.CacheHit {
			b.Fatalf("outcome %q, err %v; want a hit", outcome, err)
		}
	}
	if m := s.Metrics(); m.PlanRebuilds != int64(b.N) || m.PlanComputations != 0 {
		b.Fatalf("%d rebuilds, %d computations for %d uses; want %d, 0", m.PlanRebuilds, m.PlanComputations, b.N, b.N)
	}
}

// BenchmarkPlanMiss times a key's first use on a cached Π-stage, the
// miss-cold request: /v1/plan through handlePlan with a recorder, over
// every kernel and size of missGridKeys at merge factors 1–10. The
// daemon holds each grid stage (under a merge-factor-11 recipe) and no
// grid key, so every request runs Algorithm 1 onward, remaps, encodes
// and caches a recipe and a frame. B/op and allocs/op are what such a
// request costs the daemon, recorder included.
func BenchmarkPlanMiss(b *testing.B) {
	ctx := context.Background()
	type stageKey struct {
		warm string
		skey []byte
		st   *loopmap.Stage
	}
	var stages []stageKey
	var bodies []string
	for i, k := range missGridKeys() {
		kern, err := loopmap.LookupKernel(k.kernel, k.size)
		if err != nil {
			b.Fatal(err)
		}
		st, err := prepareStage(ctx, kern, loopmap.PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		warm := &api.PlanRequest{Kernel: k.kernel, Size: k.size, MergeFactor: 11}
		stages = append(stages, stageKey{warm.Key(), warm.AppendStageKey(nil), st})
		for merge := 1; merge <= 10; merge++ {
			bodies = append(bodies, fmt.Sprintf(`{"kernel":%q,"size":%d,"cube_dim":%d,"merge_factor":%d,"no_aux":%v}`,
				k.kernel, k.size, 2+merge%3, merge, i%2 == 1))
		}
	}
	// stagesOnly returns a daemon that holds every grid stage and no grid
	// key.
	stagesOnly := func() *Server {
		s := New(Config{CacheBytes: 1 << 40})
		for _, g := range stages {
			s.cache.put(g.warm, g.skey, g.st, nil)
		}
		return s
	}
	b.ReportAllocs()
	var s *Server
	misses := 0
	for i := range b.N {
		if i%len(bodies) == 0 {
			b.StopTimer()
			s, misses = stagesOnly(), 0
			b.StartTimer()
		}
		rec := httptest.NewRecorder()
		s.handlePlan(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", bodies[i%len(bodies)], rec.Code, rec.Body)
		}
		misses++
	}
	if m := s.Metrics(); m.PlanComputations != int64(misses) || m.StageReuses != int64(misses) {
		b.Fatalf("%d computations, %d stage reuses for %d first uses; want every one on a cached stage",
			m.PlanComputations, m.StageReuses, misses)
	}
}
