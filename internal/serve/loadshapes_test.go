package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/api"
	"repro/client"
)

// The load shapes run this many workers, each with its own seeded
// request stream.
const (
	loadWorkers = 8
	loadSeed    = 1
)

// TestLoadShapes drives an in-process daemon through client.Multi with
// the request shapes that no other test puts under concurrent load. Each
// row runs a fixed number of operations and fails on any error.
//
//   - batch: /v1/batch calls of 16 population keys, duplicates
//     included; every item must answer 200.
//   - mixed: 80% population keys, 20% never-seen keys (every one a
//     computation), single round trips.
//   - coldset: a keyspace past tiny RAM budgets on the disk tier, filled
//     concurrently, then re-touched Zipf-skewed: the re-touch recomputes
//     nothing and is partly served from disk.
func TestLoadShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T) Config
		run  func(t *testing.T, s *Server, m *client.Multi)
	}{
		{"batch", nil, loadBatch},
		{"mixed", nil, loadMixed},
		{"coldset", coldsetConfig, loadColdset},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			if tc.cfg != nil {
				cfg = tc.cfg(t)
			}
			s := New(cfg)
			t.Cleanup(func() { s.Close() })
			if _, err := s.Recover(context.Background()); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			m, err := client.NewMulti(client.MultiConfig{Endpoints: []string{ts.URL}})
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, s, m)
		})
	}
}

// runLoad performs ops operations on loadWorkers goroutines; op gets the
// worker's seeded rng and the operation's index. It fails the test if
// any operation failed.
func runLoad(t *testing.T, ops int, op func(rng *rand.Rand, i int) error) {
	t.Helper()
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed int
		first  error
	)
	for w := 0; w < loadWorkers; w++ {
		rng := rand.New(rand.NewSource(loadSeed + int64(w)*7919))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < ops; i = int(next.Add(1)) - 1 {
				if err := op(rng, i); err != nil {
					mu.Lock()
					if failed++; first == nil {
						first = fmt.Errorf("operation %d: %w", i, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if failed > 0 {
		t.Fatalf("%d of %d operations failed; first: %v", failed, ops, first)
	}
}

// populationKey draws from a fixed population of 144 keys: two kernels,
// sizes 4..27 and cube dims 2..4.
func populationKey(rng *rand.Rand) *api.PlanRequest {
	d := 2 + rng.Intn(3)
	return &api.PlanRequest{
		Kernel:  []string{"l1", "matmul"}[rng.Intn(2)],
		Size:    int64(4 + rng.Intn(24)),
		CubeDim: &d,
	}
}

// freshKey maps i to the i-th key of a grid of about 8,000 keys outside
// the population (sizes 16..128 within the default MaxKernelSize, two
// kernels, merge factors, aux toggles and cube dims), so distinct
// indices never repeat a key.
func freshKey(i int64) *api.PlanRequest {
	size := 16 + i%113
	i /= 113
	kernel := []string{"l1", "matmul"}[i%2]
	i /= 2
	merge := 1 + i%6
	i /= 6
	noAux := i%2 == 1
	i /= 2
	d := 2 + int(i%3)
	return &api.PlanRequest{
		Kernel: kernel, Size: size, CubeDim: &d,
		MergeFactor: merge, NoAux: noAux,
	}
}

func loadBatch(t *testing.T, _ *Server, m *client.Multi) {
	const calls, items = 64, 16
	ctx := context.Background()
	runLoad(t, calls, func(rng *rand.Rand, _ int) error {
		req := &api.BatchRequest{Items: make([]api.BatchItem, items)}
		for i := range req.Items {
			req.Items[i].Plan = populationKey(rng)
		}
		br, err := m.Batch(ctx, req)
		if err != nil {
			return err
		}
		if len(br.Results) != items {
			return fmt.Errorf("%d results for %d items", len(br.Results), items)
		}
		for i, res := range br.Results {
			if res.Status != http.StatusOK {
				return fmt.Errorf("item %d: status %d (%s)", i, res.Status, res.Error)
			}
		}
		return nil
	})
}

func loadMixed(t *testing.T, _ *Server, m *client.Multi) {
	const ops = 512
	ctx := context.Background()
	var fresh atomic.Int64
	runLoad(t, ops, func(rng *rand.Rand, _ int) error {
		req := populationKey(rng)
		if rng.Float64() >= 0.8 {
			req = freshKey(fresh.Add(1))
		}
		_, err := m.Plan(ctx, req)
		return err
	})
}

// coldKey maps i < coldKeys to a distinct key (sizes 4..40, two kernels,
// merge factors 1..3, aux toggles, cube dims 2..4), so the fill and the
// re-touch name the same keys.
func coldKey(i int) *api.PlanRequest {
	size := int64(4 + i%37)
	i /= 37
	kernel := []string{"l1", "matmul"}[i%2]
	i /= 2
	merge := int64(1 + i%3)
	i /= 3
	noAux := i%2 == 1
	i /= 2
	d := 2 + i%3
	return &api.PlanRequest{
		Kernel: kernel, Size: size, CubeDim: &d,
		MergeFactor: merge, NoAux: noAux,
	}
}

// coldKeys is the coldset keyspace: large enough that the 1 MiB plan
// cache evicts during the fill, the tier ends the fill with at least two
// segments, and the Zipf tail of the re-touch faults in from disk (at
// 480 keys: 3 segments and about 105 disk hits). The fill is most of the
// row's time, about 2.5 s under -race.
const coldKeys = 480

// coldsetConfig gives the daemon RAM budgets far below the keyspace and
// a disk tier in a temp directory.
func coldsetConfig(t *testing.T) Config {
	return Config{
		CacheBytes:        1 << 20,
		RespCacheBytes:    256 << 10,
		DiskCacheDir:      t.TempDir(),
		DiskMemtableBytes: 64 << 10,
		ScrubInterval:     -1,
	}
}

func loadColdset(t *testing.T, s *Server, m *client.Multi) {
	const retouches = 512
	ctx := context.Background()
	runLoad(t, coldKeys, func(_ *rand.Rand, i int) error {
		_, err := m.Plan(ctx, coldKey(i))
		return err
	})
	pre := s.Metrics()
	t.Logf("after fill: %d tiered keys, %d segments, %d evictions", pre.TieredKeys, pre.TieredSegments, pre.CacheEvictions)
	if pre.TieredKeys < coldKeys {
		t.Fatalf("tier holds %d keys after filling %d: write-through demotion is broken", pre.TieredKeys, coldKeys)
	}
	if pre.CacheEvictions == 0 {
		t.Fatalf("no plan cache evictions after filling %d keys: the keyspace fits in RAM", coldKeys)
	}
	if pre.TieredSegments < 2 {
		t.Fatalf("tier has %d segments after filling %d keys, want at least 2", pre.TieredSegments, coldKeys)
	}

	// The skew keeps popular keys in RAM while the long tail faults in
	// from disk.
	runLoad(t, retouches, func(rng *rand.Rand, _ int) error {
		i := rand.NewZipf(rng, 1.2, 1, coldKeys-1).Uint64()
		_, err := m.Plan(ctx, coldKey(int(i)))
		return err
	})
	post := s.Metrics()
	diskHits := post.TieredDiskHits - pre.TieredDiskHits
	t.Logf("re-touch: %d disk hits, %d segments", diskHits, post.TieredSegments)
	if n := post.PlanComputations - pre.PlanComputations; n != 0 {
		t.Fatalf("%d plans recomputed during the re-touch: the disk tier should have served them", n)
	}
	if diskHits == 0 {
		t.Fatalf("no re-touch was served from the disk tier (keyspace %d)", coldKeys)
	}
}
