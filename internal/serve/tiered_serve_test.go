package serve

import (
	"fmt"
	"reflect"
	"testing"

	loopmap "repro"
	"repro/api"
)

// TestTieredRoundTripEveryKernel is the equivalence suite: for every
// built-in kernel, a plan computed fresh, flushed to disk segments,
// and read back after a restart is identical to the fresh computation —
// served as a warm hit with zero NewPlan calls and an empty WAL tail
// (the bytes came from segments via the manifest, not from replay).
func TestTieredRoundTripEveryKernel(t *testing.T) {
	dir := t.TempDir()
	kernels := loopmap.KernelNames()
	if len(kernels) == 0 {
		t.Fatal("no built-in kernels")
	}

	s1, ts1, rs := newPersistentServer(t, dir, nil)
	if rs.Recovered != 0 || rs.WALRecords != 0 {
		t.Fatalf("fresh disk cache recovered %d plans, %d WAL records", rs.Recovered, rs.WALRecords)
	}
	fresh := make(map[string]api.PlanResponse, len(kernels))
	for _, k := range kernels {
		body := fmt.Sprintf(`{"kernel": %q, "size": 8, "cube_dim": 3}`, k)
		pr := planBody(t, ts1.URL+"/v1/plan", body)
		if pr.Cache != api.CacheMiss {
			t.Fatalf("first run of %s: cache %q, want miss", k, pr.Cache)
		}
		fresh[k] = pr
	}
	// Force the memtable into immutable segments so the reopened store
	// has nothing left to replay: every read below must come off disk.
	if err := s1.tier.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2, rs := newPersistentServer(t, dir, nil)
	if rs.WALRecords != 0 {
		t.Fatalf("restart replayed %d WAL records after an explicit flush — startup is not O(tail)", rs.WALRecords)
	}
	for _, k := range kernels {
		body := fmt.Sprintf(`{"kernel": %q, "size": 8, "cube_dim": 3}`, k)
		pr := planBody(t, ts2.URL+"/v1/plan", body)
		if pr.Cache != api.CacheHit {
			t.Fatalf("post-restart %s: cache %q, want hit", k, pr.Cache)
		}
		want := fresh[k]
		want.Cache = api.CacheHit
		if !reflect.DeepEqual(pr, want) {
			t.Fatalf("post-restart %s differs from fresh computation:\n got %+v\nwant %+v", k, pr, want)
		}
	}
	m := s2.Metrics()
	if m.PlanComputations != 0 {
		t.Fatalf("%d plans recomputed after restart — the disk tier should have served them all", m.PlanComputations)
	}
	if m.TieredDiskHits < int64(len(kernels)) {
		t.Fatalf("tiered disk hits = %d, want >= %d", m.TieredDiskHits, len(kernels))
	}
	if m.TieredSegments == 0 {
		t.Fatal("no live segments after restart")
	}
}

// TestTieredDiskHitPromotion pins the promotion path: a frame evicted
// from the encoded RAM cache is re-served from the disk tier as a warm
// hit — no recompute — and patched back into the encoded cache.
func TestTieredDiskHitPromotion(t *testing.T) {
	dir := t.TempDir()
	// A 1-byte encoded-cache budget evicts every frame immediately, so
	// the second request cannot be a RAM hit.
	s, ts, _ := newPersistentServer(t, dir, func(c *Config) { c.RespCacheBytes = 1 })

	body := `{"kernel": "matvec", "size": 10, "cube_dim": 2}`
	if pr := planBody(t, ts.URL+"/v1/plan", body); pr.Cache != api.CacheMiss {
		t.Fatalf("first request: cache %q, want miss", pr.Cache)
	}
	// A second key pushes the first frame out of the (1-byte) encoded
	// cache, so the re-touch below has to come off the tier.
	planBody(t, ts.URL+"/v1/plan", `{"kernel": "l1", "size": 8, "cube_dim": 3}`)
	pre := s.Metrics()
	if pr := planBody(t, ts.URL+"/v1/plan", body); pr.Cache != api.CacheHit {
		t.Fatalf("second request: cache %q, want hit", pr.Cache)
	}
	post := s.Metrics()
	if post.PlanComputations != pre.PlanComputations {
		t.Fatalf("re-touch recomputed the plan (computations %d -> %d)", pre.PlanComputations, post.PlanComputations)
	}
	if post.TieredDiskHits <= pre.TieredDiskHits {
		t.Fatalf("re-touch was not served from the disk tier (disk hits %d -> %d)", pre.TieredDiskHits, post.TieredDiskHits)
	}
}

// TestRecoveryRejectedCounter proves records dropped by current
// admission limits during warm restart are counted, not silently lost.
// The subtest names the durable store the restart recovers from.
func TestRecoveryRejectedCounter(t *testing.T) {
	t.Run("tiered", func(t *testing.T) {
		dir := t.TempDir()
		s1, ts1, _ := newPersistentServer(t, dir, func(c *Config) { c.MaxKernelSize = 128 })
		// One record each side of the tightened limit below.
		planBody(t, ts1.URL+"/v1/plan", `{"kernel": "l1", "size": 64, "cube_dim": 3}`)
		planBody(t, ts1.URL+"/v1/plan", `{"kernel": "l1", "size": 8, "cube_dim": 3}`)
		ts1.Close()
		if err := s1.Close(); err != nil {
			t.Fatal(err)
		}

		s2, _, rs := newPersistentServer(t, dir, func(c *Config) { c.MaxKernelSize = 16 })
		if rs.Rejected != 1 {
			t.Fatalf("RecoveryStats.Rejected = %d, want 1", rs.Rejected)
		}
		if rs.Recovered != 1 {
			t.Fatalf("RecoveryStats.Recovered = %d, want 1", rs.Recovered)
		}
		if got := s2.Metrics().RecoveryRejected; got != 1 {
			t.Fatalf("loopmapd_recovery_rejected_total = %d, want 1", got)
		}
	})
}
