package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	loopmap "repro"
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

func TestPlanCacheLRUOrder(t *testing.T) {
	pa, pb, pc := testPlan(t, 4), testPlan(t, 5), testPlan(t, 6)
	// Budget for exactly two of these plans.
	budget := planBytes(pa) + planBytes(pb) + planBytes(pc)/2
	c := newPlanCache(budget)

	c.put("a", pa, nil)
	c.put("b", pb, nil)
	// Touch a so b becomes the eviction candidate.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	if ev := c.put("c", pc, nil); ev == 0 {
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
	c.put("big", p, nil)
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
	c.put("k", p, nil)
	c.put("k", p, nil)
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

// TestPlanBytesTracksHeap builds base plans shaped like the miss-cold
// grid (every kernel, sizes across the grid, merge factors 1–10, aux on
// and off) and checks that their summed planBytes stays within
// [0.85, 1.30] of the live heap they pin, so the cache's byte budget
// bounds the memory the cached plans really hold.
func TestPlanBytesTracksHeap(t *testing.T) {
	type key struct {
		kernel string
		size   int64
	}
	var keys []key
	for _, k := range []string{"convolution", "dct", "l1", "matvec", "stencil", "triangular"} {
		for size := int64(8); size <= 128; size += 15 {
			keys = append(keys, key{k, size})
		}
	}
	for _, k := range []string{"closure", "matmul", "sor2d"} {
		for size := int64(4); size <= 28; size += 4 {
			keys = append(keys, key{k, size})
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	plans := make([]*loopmap.Plan, 0, len(keys))
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
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	var est int64
	for _, p := range plans {
		est += planBytes(p)
	}
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(plans)
	ratio := float64(est) / float64(live)
	t.Logf("%d plans: planBytes sum %d, live heap %d, ratio %.3f", len(plans), est, live, ratio)
	if ratio < 0.85 || ratio > 1.30 {
		t.Fatalf("planBytes sum is %.3f× the live heap of %d plans, want within [0.85, 1.30]", ratio, len(plans))
	}
}
