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

func testPlan(t *testing.T, size int64) *loopmap.Plan {
	t.Helper()
	k, err := loopmap.LookupKernel("l1", size)
	if err != nil {
		t.Fatal(err)
	}
	p, err := loopmap.NewPlan(k, loopmap.PlanOptions{CubeDim: -1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// planBytes is what the cache charges for a plan cached under key that
// holds its stage alone: the entry, the stage under its stage key, and
// the partitioning and TIG.
func planBytes(key, stageKey string, p *loopmap.Plan) int64 {
	return entryBytes(key, nil) + stageEntryBytes(stageKey, p.Stage()) + partitionBytes(p)
}

// putPlan caches p under key as the daemon does on the key's second use:
// a recipe on p's stage (the copy cached under stageKey, if any), then
// the plan stored on it. It returns the evictions.
func putPlan(c *planCache, key, stageKey string, p *loopmap.Plan) int {
	st, ok := c.stage(stageKey)
	if !ok {
		st = p.Stage()
	}
	ev, _ := c.put(key, stageKey, st, nil)
	return ev + c.setPlan(key, stageKey, st, p)
}

// testStagePlans builds one Π-stage of l1 at the given size and a plan on
// it per merge factor.
func testStagePlans(t *testing.T, size int64, merges ...int64) (*loopmap.Stage, []*loopmap.Plan) {
	t.Helper()
	st, err := loopmap.PrepareCtx(context.Background(), loopmap.NewKernel("l1", size), loopmap.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var plans []*loopmap.Plan
	for _, m := range merges {
		p, err := st.PlanCtx(context.Background(), loopmap.PlanOptions{
			CubeDim:   -1,
			Partition: loopmap.PartitionOptions{MergeFactor: m},
		})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	return st, plans
}

// evictAll empties the cache through its own eviction path.
func evictAll(c *planCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.ll.Len() > 0 {
		c.evictOldest()
	}
}

// TestPlanCacheChargesStageOnce: plans built on one stage charge it once,
// it stays while any of them is cached, and is released with the last.
func TestPlanCacheChargesStageOnce(t *testing.T) {
	st, plans := testStagePlans(t, 12, 1, 2, 3)
	c := newPlanCache(1 << 30)
	want := stageEntryBytes("stage", st)
	key := func(i int) string { return fmt.Sprintf("merge=%d", i+1) }
	for i, p := range plans {
		putPlan(c, key(i), "stage", p)
		want += entryBytes(key(i), nil) + partitionBytes(p)
		if b, _ := c.stats(); b != want {
			t.Fatalf("after %d plans: bytes = %d, want %d (stage charged once)", i+1, b, want)
		}
	}
	if got, ok := c.stage("stage"); !ok || got.Projected != st.Projected {
		t.Fatal("the cached stage is not the one the plans were built on")
	}
	if n := c.stages["stage"].refs; n != 3 {
		t.Fatalf("stage refs = %d, want 3", n)
	}

	// Evicting the two oldest plans keeps the stage; the last releases it.
	c.mu.Lock()
	c.evictOldest()
	c.evictOldest()
	c.mu.Unlock()
	if b, _ := c.stats(); b != planBytes(key(2), "stage", plans[2]) {
		t.Fatalf("one plan left: bytes = %d, want %d", b, planBytes(key(2), "stage", plans[2]))
	}
	if _, ok := c.stage("stage"); !ok {
		t.Fatal("stage released while a plan still references it")
	}
	evictAll(c)
	if b, n := c.stats(); b != 0 || n != 0 || len(c.stages) != 0 {
		t.Fatalf("after evicting everything: bytes %d, entries %d, stages %d; want 0, 0, 0", b, n, len(c.stages))
	}
}

// TestPlanCacheRacingDuplicateStage: a key computed on a second copy of a
// cached stage (two leaders raced to build it) refers to the cached copy;
// its own copy is dropped and never charged, and a plan rebuilt for the
// key runs on the cached copy.
func TestPlanCacheRacingDuplicateStage(t *testing.T) {
	stA, _ := testStagePlans(t, 12)
	stB, _ := testStagePlans(t, 12)
	c := newPlanCache(1 << 30)
	c.put("a", "stage", stA, nil)
	c.put("b", "stage", stB, nil)
	want := stageEntryBytes("stage", stA) + entryBytes("a", nil) + entryBytes("b", nil)
	if got, _ := c.stats(); got != want {
		t.Fatalf("bytes = %d, want %d (the duplicate stage charged nothing)", got, want)
	}
	if n := c.stages["stage"].refs; n != 2 {
		t.Fatalf("stage refs = %d, want 2", n)
	}
	if _, st, ok := c.get("b"); !ok || st != stA {
		t.Fatal("b does not refer to the cached stage")
	}
	// Evicting a keeps the shared stage for b; evicting b releases it.
	c.mu.Lock()
	c.evictOldest()
	c.mu.Unlock()
	if _, ok := c.stage("stage"); !ok {
		t.Fatal("stage released while b still references it")
	}
	evictAll(c)
	if got, n := c.stats(); got != 0 || n != 0 || len(c.stages) != 0 {
		t.Fatalf("after evicting everything: bytes %d, entries %d, stages %d; want 0, 0, 0", got, n, len(c.stages))
	}
}

// TestOneTouchKeysHoldNoPlan: keys computed once through the daemon leave
// recipes, entries that hold their stage but no plan, charged the entry
// alone on top of their shared stages.
func TestOneTouchKeysHoldNoPlan(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	const n = 12
	for i := 0; i < n; i++ {
		req := &api.PlanRequest{Kernel: []string{"l1", "matvec", "stencil"}[i%3], Size: 10, MergeFactor: int64(1 + i/3)}
		if _, outcome, _, err := s.basePlan(ctx, req, false); err != nil || outcome != api.CacheMiss {
			t.Fatalf("%s: outcome %q, err %v; want a miss", req.Key(), outcome, err)
		}
	}
	var want int64
	s.cache.mu.Lock()
	for el := s.cache.ll.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry); e.plan != nil {
			t.Errorf("%s holds a plan after one use", e.key)
		} else {
			want += entryBytes(e.key, e.payload)
		}
	}
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
	pa, pb, pc := testPlan(t, 4), testPlan(t, 5), testPlan(t, 6)
	// Budget for exactly two of these plans.
	budget := planBytes("a", "stage-a", pa) + planBytes("b", "stage-b", pb) + planBytes("c", "stage-c", pc)/2
	c := newPlanCache(budget)

	putPlan(c, "a", "stage-a", pa)
	putPlan(c, "b", "stage-b", pb)
	// Touch a so b becomes the eviction candidate.
	if _, _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	if ev := putPlan(c, "c", "stage-c", pc); ev == 0 {
		t.Fatal("inserting c should evict")
	}
	if _, _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	if p, _, _ := c.get("a"); p != pa {
		t.Fatal("a should have survived (recently used)")
	}
	if p, _, _ := c.get("c"); p != pc {
		t.Fatal("c should be cached (newest)")
	}
}

func TestPlanCacheNewestNeverEvicted(t *testing.T) {
	p := testPlan(t, 6)
	c := newPlanCache(1) // smaller than any plan
	putPlan(c, "big", "stage", p)
	if got, _, _ := c.get("big"); got != p {
		t.Fatal("an oversized newest entry must still cache")
	}
	if _, n := c.stats(); n != 1 {
		t.Fatalf("entries = %d, want 1", n)
	}
}

func TestPlanCacheDuplicatePut(t *testing.T) {
	p := testPlan(t, 4)
	c := newPlanCache(1 << 20)
	putPlan(c, "k", "stage", p)
	putPlan(c, "k", "stage", p)
	b1, n := c.stats()
	if n != 1 {
		t.Fatalf("entries = %d, want 1 after duplicate put", n)
	}
	if b1 != planBytes("k", "stage", p) {
		t.Fatalf("bytes = %d, want %d (no double counting)", b1, planBytes("k", "stage", p))
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

// TestPlanBytesTracksHeap builds base plans shaped like the miss-cold
// grid (every kernel, sizes across the grid, merge factors 1–10, aux on
// and off) and checks that their summed stage and partition bytes stay
// within [0.85, 1.30] of the live heap they pin, so the cache's byte
// budget bounds the memory the cached plans really hold.
func TestPlanBytesTracksHeap(t *testing.T) {
	checkBytesTrackHeap(t, func() (int64, any, string) {
		keys := missGridKeys()
		plans := make([]*loopmap.Plan, 0, len(keys))
		var est int64
		for i, k := range keys {
			kern, err := loopmap.LookupKernel(k.kernel, k.size)
			if err != nil {
				t.Fatal(err)
			}
			p, err := loopmap.NewPlan(kern, loopmap.PlanOptions{
				CubeDim:   -1,
				Partition: loopmap.PartitionOptions{MergeFactor: int64(1 + i%10), NoAux: i%2 == 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, p)
			est += stageBytes(p.Stage()) + partitionBytes(p)
		}
		return est, plans, fmt.Sprintf("%d plans, stage and partition bytes sum", len(plans))
	})
}

// TestSharedStageBytesTracksHeap is TestPlanBytesTracksHeap with shared
// stages: per grid key one stage and plans at merge factors 1–3 on it,
// all cached, so the stage is charged once. The cache's byte count must
// stay within the same band of the live heap the stages and plans pin.
func TestSharedStageBytesTracksHeap(t *testing.T) {
	checkBytesTrackHeap(t, func() (int64, any, string) {
		keys := missGridKeys()
		c := newPlanCache(1 << 40)
		ctx := context.Background()
		for i, k := range keys {
			kern, err := loopmap.LookupKernel(k.kernel, k.size)
			if err != nil {
				t.Fatal(err)
			}
			st, err := loopmap.PrepareCtx(ctx, kern, loopmap.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			skey := fmt.Sprintf("%s/%d", k.kernel, k.size)
			for merge := int64(1); merge <= 3; merge++ {
				p, err := st.PlanCtx(ctx, loopmap.PlanOptions{
					CubeDim:   -1,
					Partition: loopmap.PartitionOptions{MergeFactor: merge, NoAux: i%2 == 1},
				})
				if err != nil {
					t.Fatal(err)
				}
				putPlan(c, fmt.Sprintf("%s/merge=%d", skey, merge), skey, p)
			}
		}
		est, n := c.stats()
		if n != 3*len(keys) || len(c.stages) != len(keys) {
			t.Fatalf("cached %d plans on %d stages, want %d on %d", n, len(c.stages), 3*len(keys), len(keys))
		}
		return est, c, fmt.Sprintf("%d plans on %d shared stages, cache bytes", n, len(c.stages))
	})
}

// TestCompactStageBytesTracksHeap is TestSharedStageBytesTracksHeap on
// the daemon's own stages: every miss-grid key planned through the
// server at merge factors 1–10 (aux on and off by key), so each stage is
// compact and shared by ten entries. Planned once, every entry is a
// recipe; planned twice, every entry holds its plan. The last case plans
// once and then serves one /v1/simulate per stage, which builds the
// stage's V and charges it (and, as its key's second use, stores one
// plan). In each, the cache's byte count must stay within the band of the
// live heap.
func TestCompactStageBytesTracksHeap(t *testing.T) {
	ctx := context.Background()
	keys := missGridKeys()
	for _, c := range []struct {
		uses     int
		simulate bool
		what     string
	}{
		{1, false, "recipes on compact stages"},
		{2, false, "plans on compact stages"},
		{1, true, "recipes on stages after one simulation each"},
	} {
		s := New(Config{CacheBytes: 1 << 40})
		checkBytesTrackHeap(t, func() (int64, any, string) {
			for i, k := range keys {
				noAux := i%2 == 1
				for merge := int64(1); merge <= 10; merge++ {
					req := &api.PlanRequest{Kernel: k.kernel, Size: k.size, MergeFactor: merge, NoAux: noAux}
					for range c.uses {
						if _, _, _, err := s.basePlan(ctx, req, false); err != nil {
							t.Fatal(err)
						}
					}
				}
				if c.simulate {
					body := fmt.Sprintf(`{"kernel": %q, "size": %d, "no_aux": %v, "engine": "block"}`, k.kernel, k.size, noAux)
					rec := httptest.NewRecorder()
					s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
					if rec.Code != http.StatusOK {
						t.Fatalf("simulate %s: %d %s", body, rec.Code, rec.Body)
					}
				}
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

// BenchmarkBaseReuse times what a key's reuse costs on the miss-cold
// grid: every kernel and size of missGridKeys at merge factors 1–10, one
// shared stage each. "rebuild" is a key's second use, which finds a
// recipe, rebuilds the plan from the stage and stores it; "stored" is a
// later use, which finds the plan. Both remap it onto the request's cube.
func BenchmarkBaseReuse(b *testing.B) {
	ctx := context.Background()
	type gridKey struct {
		req  *api.PlanRequest
		skey string
		st   *loopmap.Stage
	}
	var grid []gridKey
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
			grid = append(grid, gridKey{req, string(req.AppendStageKey(nil)), st})
		}
	}
	// recipes returns a daemon whose cache holds every grid key as a
	// recipe, used uses more times.
	recipes := func(uses int) *Server {
		s := New(Config{CacheBytes: 1 << 40})
		for _, g := range grid {
			s.cache.put(g.req.Key(), g.skey, g.st, nil)
		}
		for range uses {
			for _, g := range grid {
				if _, _, _, err := s.basePlan(ctx, g.req, false); err != nil {
					b.Fatal(err)
				}
			}
		}
		return s
	}
	for _, c := range []struct {
		name string
		uses int
	}{{"rebuild", 0}, {"stored", 1}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var s *Server
			for i := range b.N {
				if i%len(grid) == 0 {
					b.StopTimer()
					s = recipes(c.uses)
					b.StartTimer()
				}
				if _, outcome, err := s.mappedPlan(ctx, grid[i%len(grid)].req); err != nil || outcome != api.CacheHit {
					b.Fatalf("outcome %q, err %v; want a hit", outcome, err)
				}
			}
			if m := s.Metrics(); c.uses > 0 && m.PlanRebuilds != int64(len(grid)) {
				b.Fatalf("%d rebuilds before timing, want %d", m.PlanRebuilds, len(grid))
			}
		})
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
		skey string
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
		stages = append(stages, stageKey{warm.Key(), string(warm.AppendStageKey(nil)), st})
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
