package serve

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/diskchaos"
)

// The full degraded-mode contract at the HTTP surface: after a WAL fault,
// the latch fires exactly once, new plans answer 503 + Retry-After +
// api.ReadOnlyHeader without being acked or cached, already-cached plans
// keep serving 200, /readyz flips to degraded while /healthz stays 200,
// and the gauge shows in both Snapshot and /metrics.
func TestDegradedStoreServesReadOnly(t *testing.T) {
	ffs, err := diskchaos.New(diskchaos.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, ts, _ := newPersistentServer(t, dir, func(c *Config) { c.FS = ffs })

	warm := `{"kernel": "l1", "size": 8, "cube_dim": 3}`
	if pr := planBody(t, ts.URL+"/v1/plan", warm); pr.Cache != api.CacheMiss {
		t.Fatalf("warmup cache = %q", pr.Cache)
	}

	if err := ffs.Arm([]diskchaos.Rule{
		{Op: diskchaos.OpSync, Path: "wal-", Kind: diskchaos.KindEIO, Count: -1},
	}); err != nil {
		t.Fatal(err)
	}

	// A new plan needs a durable append, whose fsync now fails.
	resp, body := postJSON(t, ts.URL+"/v1/plan", `{"kernel": "matmul", "size": 6, "cube_dim": 3}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write during fault: %s: %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get(api.ReadOnlyHeader) != "1" {
		t.Fatalf("degraded 503 missing headers: %v", resp.Header)
	}
	if ffs.TotalInjected() == 0 {
		t.Fatal("armed WAL fault never fired")
	}
	if !s.storeDegraded.Load() || s.tier.Degraded() == nil {
		t.Fatal("store did not latch degraded")
	}

	// Sticky: a second new plan fails fast the same way, and the latch
	// fired exactly once (the gauge is still 1).
	resp2, _ := postJSON(t, ts.URL+"/v1/plan", `{"kernel": "matvec", "size": 6, "cube_dim": 2}`)
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get(api.ReadOnlyHeader) != "1" {
		t.Fatalf("second write during fault: %s", resp2.Status)
	}
	snap := s.Metrics()
	if snap.StoreDegraded != 1 {
		t.Fatalf("store_degraded gauge = %d, want 1", snap.StoreDegraded)
	}

	// The warm plan is cached: reads keep flowing while degraded.
	if pr := planBody(t, ts.URL+"/v1/plan", warm); pr.Cache != api.CacheHit {
		t.Fatalf("cached read during degradation: cache = %q", pr.Cache)
	}

	// Health endpoints: /readyz diverts traffic, /healthz keeps the shard
	// a live cluster member.
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(ready.Body)
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(rb), "degraded") {
		t.Fatalf("/readyz = %s %q, want degraded 503", ready.Status, rb)
	}
	if ready.Header.Get(api.ReadOnlyHeader) != "1" {
		t.Fatal("/readyz missing the read-only marker")
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %s, want 200 while degraded", health.Status)
	}

	// The failed plans were never acked, so they must not have been
	// cached either: the only WAL append is the warmup's.
	if snap.WALAppends != 1 {
		t.Fatalf("wal appends = %d, want 1 (failed writes must not ack)", snap.WALAppends)
	}

	// /metrics renders the gauge.
	met, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(met.Body)
	met.Body.Close()
	if !strings.Contains(string(mb), "loopmapd_store_degraded 1") {
		t.Fatal("/metrics missing loopmapd_store_degraded 1")
	}
	if !strings.Contains(string(mb), "loopmapd_wal_bytes") {
		t.Fatal("/metrics missing loopmapd_wal_bytes")
	}
}

// A dirty scrub pass finds a segment corrupted under the daemon's feet,
// quarantines it without latching the store, and leaves the next pass
// clean.
func TestScrubQuarantinesCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	s, ts, _ := newPersistentServer(t, dir, nil)
	bodies := []string{
		`{"kernel": "l1", "size": 8, "cube_dim": 3}`,
		`{"kernel": "matvec", "size": 10, "cube_dim": 2}`,
	}
	for _, body := range bodies {
		planBody(t, ts.URL+"/v1/plan", body)
	}
	if err := s.tier.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.sst"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one flushed segment, have %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x40 // inside the first data block
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, ok := s.ScrubNow()
	if !ok || rep.Clean() || rep.Quarantined != 1 {
		t.Fatalf("scrub missed on-disk corruption: ok=%v report=%+v", ok, rep)
	}
	clean, _ := s.ScrubNow()
	if !clean.Clean() {
		t.Fatalf("store still dirty after quarantine: %+v", clean)
	}
	snap := s.Metrics()
	if snap.ScrubCorrupt != 1 || snap.ScrubRuns < 2 || snap.TieredQuarantined != 1 {
		t.Fatalf("scrub metrics: corrupt=%d runs=%d quarantined=%d", snap.ScrubCorrupt, snap.ScrubRuns, snap.TieredQuarantined)
	}
	if snap.StoreDegraded != 0 {
		t.Fatal("repairable corruption must not latch the store")
	}
	// Reads keep serving from the RAM caches.
	for _, body := range bodies {
		if pr := planBody(t, ts.URL+"/v1/plan", body); pr.Cache != api.CacheHit {
			t.Fatalf("%s after quarantine: cache %q, want hit", body, pr.Cache)
		}
	}
}
