package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	loopmap "repro"
	"repro/api"
	"repro/internal/machine"
	"repro/internal/persist"
	"repro/internal/tiered"
)

// newPersistentServer builds a Server backed by the tiered disk store on
// dir and warm-starts it. Scrubbing is manual (ScrubNow) only.
func newPersistentServer(t *testing.T, dir string, mutate func(*Config)) (*Server, *httptest.Server, RecoveryStats) {
	t.Helper()
	cfg := Config{DiskCacheDir: dir, Fsync: "always", ScrubInterval: -1}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	rs, err := s.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, rs
}

// planArtifactsEqual DeepEquals every derived artifact of two plans. The
// Kernel itself is compared structurally (name, nest, deps, Π) because its
// executable semantics are function values, which DeepEqual cannot
// meaningfully compare. Both plans must be built the same way (on
// compact stages, as the daemon builds them, with V not yet built): a
// compact and an eager structure differ in V.
func planArtifactsEqual(t *testing.T, got, want *loopmap.Plan) {
	t.Helper()
	if got.Kernel.Name != want.Kernel.Name {
		t.Fatalf("kernel name %q != %q", got.Kernel.Name, want.Kernel.Name)
	}
	if !reflect.DeepEqual(got.Kernel.Nest, want.Kernel.Nest) {
		t.Fatal("kernel nests differ")
	}
	if !reflect.DeepEqual(got.Kernel.Deps, want.Kernel.Deps) {
		t.Fatal("kernel dependence matrices differ")
	}
	for name, pair := range map[string][2]any{
		"Structure":    {got.Structure, want.Structure},
		"Schedule":     {got.Schedule, want.Schedule},
		"Projected":    {got.Projected, want.Projected},
		"Partitioning": {got.Partitioning, want.Partitioning},
		"TIG":          {got.TIG, want.TIG},
		"Mapping":      {got.Mapping, want.Mapping},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("recovered plan's %s differs from fresh computation", name)
		}
	}
}

// TestWarmRestartServesIdenticalPlans is the round-trip proof: plans
// computed before a restart come back as warm cache hits whose Plan and
// simulation Stats are DeepEqual to a fresh computation.
func TestWarmRestartServesIdenticalPlans(t *testing.T) {
	dir := t.TempDir()
	requests := []string{
		`{"kernel": "l1", "size": 8, "cube_dim": 3}`,
		`{"kernel": "matvec", "size": 12, "cube_dim": 2}`,
		`{"kernel": "matmul", "size": 4, "cube_dim": 3, "search_pi": true}`,
	}

	s1, ts1, rs := newPersistentServer(t, dir, nil)
	if rs.Recovered != 0 {
		t.Fatalf("fresh state dir recovered %d plans", rs.Recovered)
	}
	var firstBodies []api.PlanResponse
	for _, body := range requests {
		pr := planBody(t, ts1.URL+"/v1/plan", body)
		if pr.Cache != api.CacheMiss {
			t.Fatalf("first run of %s: cache %q, want miss", body, pr.Cache)
		}
		firstBodies = append(firstBodies, pr)
	}
	if got := s1.Metrics().WALAppends; got != int64(len(requests)) {
		t.Fatalf("WAL appends = %d, want %d", got, len(requests))
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2, rs := newPersistentServer(t, dir, nil)
	if rs.Recovered != len(requests) || rs.Skipped != 0 {
		t.Fatalf("warm restart recovered %d / skipped %d, want %d / 0", rs.Recovered, rs.Skipped, len(requests))
	}
	for i, body := range requests {
		pr := planBody(t, ts2.URL+"/v1/plan", body)
		if pr.Cache != api.CacheHit {
			t.Fatalf("post-restart %s: cache %q, want hit", body, pr.Cache)
		}
		// The response must match the pre-crash one except for the cache
		// outcome itself.
		pre := firstBodies[i]
		pre.Cache = api.CacheHit
		if !reflect.DeepEqual(pr, pre) {
			t.Fatalf("post-restart response differs:\n got %+v\nwant %+v", pr, pre)
		}
	}
	if got := s2.Metrics().RecoveredPlans; got != int64(len(requests)) {
		t.Fatalf("loopmapd_recovered_plans_total = %d, want %d", got, len(requests))
	}

	// Plan + Stats identity against fresh computation, per acceptance
	// criterion: DeepEqual, not just summary equality.
	// Recovery leaves a recipe; the key's next use rebuilds its plan from
	// the recovered stage.
	req := &api.PlanRequest{Kernel: "matvec", Size: 12}
	if _, _, ok := s2.cache.get(req.Key()); !ok {
		t.Fatal("recovered matvec key missing from cache")
	}
	recovered, outcome, err := s2.basePlan(context.Background(), req)
	if err != nil || outcome != api.CacheHit {
		t.Fatalf("recovered matvec key: outcome %q, err %v; want a hit", outcome, err)
	}
	// The daemon caches compact stages, so the fresh computation builds
	// one too: a compact structure and an eager one differ in V, which
	// DeepEqual sees. TestCompactStagePlansMatchEager compares compact
	// plans with eager NewPlan ones.
	st, err := prepareStage(context.Background(), loopmap.NewKernel("matvec", 12), planOptions(req))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := st.PlanCtx(context.Background(), planOptions(req))
	if err != nil {
		t.Fatal(err)
	}
	planArtifactsEqual(t, recovered, fresh)

	recMapped, err := recovered.Remap(2)
	if err != nil {
		t.Fatal(err)
	}
	freshMapped, err := fresh.Remap(2)
	if err != nil {
		t.Fatal(err)
	}
	planArtifactsEqual(t, recMapped, freshMapped)
	recStats, err := recMapped.Simulate(machine.Era1991(), loopmap.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	freshStats, err := freshMapped.Simulate(machine.Era1991(), loopmap.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recStats, freshStats) {
		t.Fatalf("recovered stats %+v != fresh %+v", recStats, freshStats)
	}
}

// newestWAL returns the path of the store's active WAL file.
func newestWAL(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no WAL in %s: %v", dir, err)
	}
	return names[len(names)-1] // zero-padded sequence numbers sort in order
}

// TestRecoverySkipsCorruptTail bit-flips a record near the WAL tail and
// checks startup still succeeds with every earlier record intact.
func TestRecoverySkipsCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := newPersistentServer(t, dir, nil)
	for _, body := range []string{
		`{"kernel": "l1", "size": 6, "cube_dim": 3}`,
		`{"kernel": "l1", "size": 7, "cube_dim": 3}`,
		`{"kernel": "l1", "size": 8, "cube_dim": 3}`,
	} {
		planBody(t, ts1.URL+"/v1/plan", body)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// The last plan's base record sits just before its encoded frame,
	// the final record; replay stops at the flipped one and drops both.
	walPath := newestWAL(t, dir)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	last := (&api.PlanRequest{Kernel: "l1", Size: 8}).Key()
	at := strings.LastIndex(string(data), repBasePrefix+last)
	if at < 0 {
		t.Fatal("last base record not found in the WAL")
	}
	data[at+len(repBasePrefix)] ^= 0x04 // flip one bit inside its payload
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2, rs := newPersistentServer(t, dir, nil)
	if rs.TailErr == nil || rs.DroppedTailBytes == 0 {
		t.Fatalf("corrupt tail unreported: %+v", rs)
	}
	if rs.Recovered != 2 {
		t.Fatalf("recovered %d plans, want the 2 before the flipped record", rs.Recovered)
	}
	// The two intact records serve warm; the lost one recomputes.
	if pr := planBody(t, ts2.URL+"/v1/plan", `{"kernel": "l1", "size": 7, "cube_dim": 3}`); pr.Cache != api.CacheHit {
		t.Fatalf("intact record not warm: %q", pr.Cache)
	}
	if pr := planBody(t, ts2.URL+"/v1/plan", `{"kernel": "l1", "size": 8, "cube_dim": 3}`); pr.Cache != api.CacheMiss {
		t.Fatalf("lost record not recomputed: %q", pr.Cache)
	}
	_ = s2
}

// TestRecoverySkipsForeignRecords: a record with a valid checksum but an
// undecodable or inconsistent payload is skipped, not fatal.
func TestRecoverySkipsForeignRecords(t *testing.T) {
	dir := t.TempDir()
	store, _, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	good := &api.PlanRequest{Kernel: "l1", Size: 8}
	mismatched := &api.PlanRequest{Kernel: "matvec", Size: 8}
	oversized := &api.PlanRequest{Kernel: "l1", Size: 4096}
	for _, rec := range []persist.Record{
		{Key: repBasePrefix + good.Key(), Value: persistPayload(good)},
		{Key: repBasePrefix + "junk-key", Value: []byte("not json")},
		{Key: repBasePrefix + "wrong-key", Value: persistPayload(mismatched)},
		{Key: repBasePrefix + oversized.Key(), Value: persistPayload(oversized)},
		{Key: "no-prefix", Value: persistPayload(good)},
	} {
		if err := store.Put(rec.Key, rec.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	s, _, rs := newPersistentServer(t, dir, nil)
	if rs.Recovered != 1 || rs.Skipped != 4 {
		t.Fatalf("recovered %d / skipped %d, want 1 / 4", rs.Recovered, rs.Skipped)
	}
	if got := s.Metrics().RecoverySkipped; got != 4 {
		t.Fatalf("loopmapd_recovery_skipped_total = %d, want 4", got)
	}
}

// TestCompactionKeepsStoreRecoverable drives the tier through memtable
// flushes and segment compactions and verifies a restart still serves
// every plan warm: segment-resident ones promote from disk, the WAL tail
// recomputes.
func TestCompactionKeepsStoreRecoverable(t *testing.T) {
	dir := t.TempDir()
	small := func(c *Config) {
		c.DiskMemtableBytes = 2 << 10 // a few records per flush
		c.CompactTrigger = 2
	}
	s1, ts1, _ := newPersistentServer(t, dir, small)
	const n = 8
	body := func(i int) string { return fmt.Sprintf(`{"kernel": "l1", "size": %d, "cube_dim": 3}`, i+4) }
	for i := 0; i < n; i++ {
		planBody(t, ts1.URL+"/v1/plan", body(i))
	}
	ts1.Close()
	if err := s1.Close(); err != nil { // waits for background compaction
		t.Fatal(err)
	}
	if got := s1.Metrics().TieredCompactions; got == 0 {
		t.Fatal("no compaction despite a 2 KiB memtable and a trigger of 2")
	}

	s2, ts2, rs := newPersistentServer(t, dir, small)
	if rs.WALRecords >= 2*n {
		t.Fatalf("restart replayed %d WAL records: nothing reached a segment", rs.WALRecords)
	}
	pre := s2.Metrics().PlanComputations
	for i := 0; i < n; i++ {
		pr := planBody(t, ts2.URL+"/v1/plan", body(i))
		if pr.Cache != api.CacheHit {
			t.Fatalf("size %d not warm after compacted restart: %q", i+4, pr.Cache)
		}
	}
	if got := s2.Metrics().PlanComputations; got != pre {
		t.Fatalf("warm re-serve recomputed %d plans", got-pre)
	}
}

// TestRecoverWithoutDiskCacheDirIsNoop keeps the ephemeral configuration
// behaviour unchanged.
func TestRecoverWithoutDiskCacheDirIsNoop(t *testing.T) {
	s := New(Config{})
	rs, err := s.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Enabled {
		t.Fatal("Recover claimed persistence without a DiskCacheDir")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRejectsBadFsyncPolicy surfaces configuration typos early.
func TestRecoverRejectsBadFsyncPolicy(t *testing.T) {
	s := New(Config{DiskCacheDir: t.TempDir(), Fsync: "sometimes"})
	if _, err := s.Recover(context.Background()); err == nil {
		t.Fatal("Recover accepted fsync policy \"sometimes\"")
	}
}

// TestRecoverBuildsEachStageOnce: ten merge variants of one kernel come
// back from the WAL on one Π-stage, and the recovered cache charges the
// same bytes as a live daemon that served the same keys.
func TestRecoverBuildsEachStageOnce(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := newPersistentServer(t, dir, nil)
	for merge := 1; merge <= 10; merge++ {
		planBody(t, ts1.URL+"/v1/plan", fmt.Sprintf(`{"kernel": "stencil", "size": 20, "merge_factor": %d}`, merge))
	}
	live := s1.Metrics()
	if live.StageReuses != 9 {
		t.Fatalf("live stage reuses = %d, want 9", live.StageReuses)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _, rs := newPersistentServer(t, dir, nil)
	if rs.Recovered != 10 || rs.Skipped != 0 {
		t.Fatalf("recovered %d / skipped %d, want 10 / 0", rs.Recovered, rs.Skipped)
	}
	got := s2.Metrics()
	if n := cachedStages(s2.cache); n != 1 {
		t.Fatalf("recovered cache holds %d stages, want 1", n)
	}
	if got.CacheBytes != live.CacheBytes || got.CacheEntries != live.CacheEntries {
		t.Fatalf("recovered cache: %d bytes in %d entries; live daemon: %d bytes in %d entries",
			got.CacheBytes, got.CacheEntries, live.CacheBytes, live.CacheEntries)
	}
}
