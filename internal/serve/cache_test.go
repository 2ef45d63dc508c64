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

// planBytes is what the cache charges for a plan that holds its stage
// alone: stageBytes plus partitionBytes.
func planBytes(p *loopmap.Plan) int64 {
	return stageBytes(p.Stage()) + partitionBytes(p)
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
	want := stageBytes(st)
	for i, p := range plans {
		c.put(fmt.Sprintf("merge=%d", i+1), "stage", p, nil)
		want += partitionBytes(p)
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
	if b, _ := c.stats(); b != stageBytes(st)+partitionBytes(plans[2]) {
		t.Fatalf("one plan left: bytes = %d, want %d", b, stageBytes(st)+partitionBytes(plans[2]))
	}
	if _, ok := c.stage("stage"); !ok {
		t.Fatal("stage released while a plan still references it")
	}
	evictAll(c)
	if b, n := c.stats(); b != 0 || n != 0 || len(c.stages) != 0 {
		t.Fatalf("after evicting everything: bytes %d, entries %d, stages %d; want 0, 0, 0", b, n, len(c.stages))
	}
}

// TestPlanCacheRacingDuplicateStage: a plan built on a second copy of a
// cached stage (two leaders raced to build it) is charged that copy
// itself and never becomes a reference of the cached one.
func TestPlanCacheRacingDuplicateStage(t *testing.T) {
	stA, a := testStagePlans(t, 12, 1)
	stB, b := testStagePlans(t, 12, 2)
	c := newPlanCache(1 << 30)
	c.put("a", "stage", a[0], nil)
	c.put("b", "stage", b[0], nil)
	want := stageBytes(stA) + partitionBytes(a[0]) + stageBytes(stB) + partitionBytes(b[0])
	if got, _ := c.stats(); got != want {
		t.Fatalf("bytes = %d, want %d (the duplicate charged its own copy)", got, want)
	}
	if n := c.stages["stage"].refs; n != 1 {
		t.Fatalf("stage refs = %d, want 1", n)
	}
	// Evicting a releases the shared stage; b still carries its copy.
	c.mu.Lock()
	c.evictOldest()
	c.mu.Unlock()
	if _, ok := c.stage("stage"); ok {
		t.Fatal("stage survived its only referencing plan")
	}
	if got, _ := c.stats(); got != planBytes(b[0]) {
		t.Fatalf("bytes = %d, want %d", got, planBytes(b[0]))
	}
	evictAll(c)
	if got, n := c.stats(); got != 0 || n != 0 {
		t.Fatalf("after evicting everything: bytes %d, entries %d; want 0, 0", got, n)
	}
}

func TestPlanCacheLRUOrder(t *testing.T) {
	pa, pb, pc := testPlan(t, 4), testPlan(t, 5), testPlan(t, 6)
	// Budget for exactly two of these plans.
	budget := planBytes(pa) + planBytes(pb) + planBytes(pc)/2
	c := newPlanCache(budget)

	c.put("a", "stage-a", pa, nil)
	c.put("b", "stage-b", pb, nil)
	// Touch a so b becomes the eviction candidate.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	if ev := c.put("c", "stage-c", pc, nil); ev == 0 {
		t.Fatal("inserting c should evict")
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c should be cached (newest)")
	}
}

func TestPlanCacheNewestNeverEvicted(t *testing.T) {
	p := testPlan(t, 6)
	c := newPlanCache(1) // smaller than any plan
	c.put("big", "stage", p, nil)
	if _, ok := c.get("big"); !ok {
		t.Fatal("an oversized newest entry must still cache")
	}
	if _, n := c.stats(); n != 1 {
		t.Fatalf("entries = %d, want 1", n)
	}
}

func TestPlanCacheDuplicatePut(t *testing.T) {
	p := testPlan(t, 4)
	c := newPlanCache(1 << 20)
	c.put("k", "stage", p, nil)
	c.put("k", "stage", p, nil)
	b1, n := c.stats()
	if n != 1 {
		t.Fatalf("entries = %d, want 1 after duplicate put", n)
	}
	if b1 != planBytes(p) {
		t.Fatalf("bytes = %d, want %d (no double counting)", b1, planBytes(p))
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
			v, err, shared := g.do(context.Background(), "k", func() (any, error) {
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
	_, err, _ := g.do(context.Background(), "k", func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// A failed flight is not cached: the next call runs again.
	v, err, _ := g.do(context.Background(), "k", func() (any, error) { return 1, nil })
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
		_, err, shared := g.do(ctx, "k", func() (any, error) { return nil, errors.New("follower ran fn") })
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
	v, err, shared := g.do(ctx, "k", func() (any, error) { return 2, nil })
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
// and off) and checks that their summed planBytes stays within
// [0.85, 1.30] of the live heap they pin, so the cache's byte budget
// bounds the memory the cached plans really hold.
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
			est += planBytes(p)
		}
		return est, plans, fmt.Sprintf("%d plans, planBytes sum", len(plans))
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
				c.put(fmt.Sprintf("%s/merge=%d", skey, merge), skey, p, nil)
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
// compact and shared by ten plans. The second case then serves one
// /v1/simulate per stage, which builds the stage's V and charges it. In
// both, the cache's byte count must stay within the band of the live
// heap.
func TestCompactStageBytesTracksHeap(t *testing.T) {
	ctx := context.Background()
	keys := missGridKeys()
	for _, simulate := range []bool{false, true} {
		s := New(Config{CacheBytes: 1 << 40})
		checkBytesTrackHeap(t, func() (int64, any, string) {
			for i, k := range keys {
				noAux := i%2 == 1
				for merge := int64(1); merge <= 10; merge++ {
					req := &api.PlanRequest{Kernel: k.kernel, Size: k.size, MergeFactor: merge, NoAux: noAux}
					if _, _, err := s.basePlan(ctx, req); err != nil {
						t.Fatal(err)
					}
				}
				if simulate {
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
				t.Fatalf("cached %d plans on %d stages, want %d on %d", n, cachedStages(s.cache), 10*len(keys), len(keys))
			}
			what := "compact stages"
			if simulate {
				what = "stages after one simulation each"
			}
			return est, s, fmt.Sprintf("%d plans on %d %s, cache bytes", n, len(keys), what)
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
