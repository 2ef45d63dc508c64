package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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
// PrepareCtx stages, as the daemon builds them, whose structures hold no
// V): a counted and an eager structure differ in V.
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
	if _, ok := s2.cache.get(req.Key()); !ok {
		t.Fatal("recovered matvec key missing from cache")
	}
	recovered, outcome, _, err := s2.basePlan(context.Background(), req)
	if err != nil || outcome != api.CacheHit {
		t.Fatalf("recovered matvec key: outcome %q, err %v; want a hit", outcome, err)
	}
	// The daemon caches PrepareCtx stages, so the fresh computation
	// builds one too: a counted structure and an eager one differ in V,
	// which DeepEqual sees. TestCompactStagePlansMatchEager compares
	// plans on PrepareCtx stages with eager NewPlan ones.
	st, err := loopmap.PrepareCtx(context.Background(), loopmap.NewKernel("matvec", 12), planOptions(req))
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

// TestRecoveredRecordThatDoesNotPlan: a tail record that passes
// validatePlanRequest but whose Π is no valid schedule is recovered, since
// recovery plans nothing. Its first use answers with the status and body
// a fresh daemon gives, and drops the key.
func TestRecoveredRecordThatDoesNotPlan(t *testing.T) {
	dir := t.TempDir()
	bad := &api.PlanRequest{Kernel: "l1", Size: 8, Pi: []int64{-1, 0}}
	writeTail(t, dir, []*api.PlanRequest{bad})
	s, ts, rs := newPersistentServer(t, dir, nil)
	if rs.Recovered != 1 || rs.Skipped != 0 {
		t.Fatalf("recovered %d / skipped %d, want 1 / 0", rs.Recovered, rs.Skipped)
	}
	body := `{"kernel":"l1","size":8,"pi":[-1,0]}`
	resp, got := postJSON(t, ts.URL+"/v1/plan", body)
	_, fresh := newTestServer(t, Config{})
	wantResp, want := postJSON(t, fresh.URL+"/v1/plan", body)
	if resp.StatusCode != wantResp.StatusCode || !bytes.Equal(got, want) {
		t.Fatalf("first use: %s %s; a fresh daemon: %s %s", resp.Status, got, wantResp.Status, want)
	}
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("Π (-1, 0) planned: %s", got)
	}
	if _, ok := s.cache.get(bad.Key()); ok {
		t.Fatal("the key is still held after its plan failed")
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
// back from the WAL as stage-less recipes, so recovery builds no stage.
// Their first uses build one stage between them, after which the cache
// charges the same bytes as a live daemon that served each key twice.
func TestRecoverBuildsEachStageOnce(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := newPersistentServer(t, dir, nil)
	// The second use asks for another cube, so it misses the encoded
	// response cache and reaches the plan cache.
	for _, cube := range []int{3, 2} {
		for merge := 1; merge <= 10; merge++ {
			planBody(t, ts1.URL+"/v1/plan", fmt.Sprintf(`{"kernel": "stencil", "size": 20, "merge_factor": %d, "cube_dim": %d}`, merge, cube))
		}
	}
	live := s1.Metrics()
	if live.StageBuilds != 1 || live.StageReuses != 9 || live.PlanRebuilds != 10 {
		t.Fatalf("live stage builds %d, reuses %d, rebuilds %d; want 1, 9, 10", live.StageBuilds, live.StageReuses, live.PlanRebuilds)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _, rs := newPersistentServer(t, dir, nil)
	if rs.Recovered != 10 || rs.Skipped != 0 {
		t.Fatalf("recovered %d / skipped %d, want 10 / 0", rs.Recovered, rs.Skipped)
	}
	if n := cachedStages(s2.cache); n != 0 {
		t.Fatalf("recovery built %d stages, want 0", n)
	}
	for merge := int64(1); merge <= 10; merge++ {
		_, outcome, _, err := s2.basePlan(context.Background(), &api.PlanRequest{Kernel: "stencil", Size: 20, MergeFactor: merge})
		if err != nil || outcome != api.CacheHit {
			t.Fatalf("merge %d: outcome %q, err %v; want a hit", merge, outcome, err)
		}
	}
	got := s2.Metrics()
	if n := cachedStages(s2.cache); n != 1 || got.StageBuilds != 1 || got.PlanRebuilds != 10 || got.PlanComputations != 0 {
		t.Fatalf("first uses: %d stages cached, %d built, %d rebuilds, %d computations; want 1, 1, 10, 0",
			n, got.StageBuilds, got.PlanRebuilds, got.PlanComputations)
	}
	if got.CacheBytes != live.CacheBytes || got.CacheEntries != live.CacheEntries {
		t.Fatalf("recovered cache: %d bytes in %d entries; live daemon: %d bytes in %d entries",
			got.CacheBytes, got.CacheEntries, live.CacheBytes, live.CacheEntries)
	}
}

// recoveryTail returns n base requests on the miss grid's kernels at
// every size of their range, smallest sizes first: one stage per kernel
// and size, each shared by twenty keys (merge factors 1–10, aux on and
// off).
func recoveryTail(n int) []*api.PlanRequest {
	reqs := make([]*api.PlanRequest, 0, n)
	for size := int64(4); size <= 128; size++ {
		for _, k := range []string{"closure", "convolution", "dct", "l1", "matmul", "matvec", "sor2d", "stencil", "triangular"} {
			if threeD := k == "closure" || k == "matmul" || k == "sor2d"; threeD && size > 28 || !threeD && size < 8 {
				continue
			}
			for merge := int64(1); merge <= 10; merge++ {
				for _, noAux := range []bool{false, true} {
					if len(reqs) == n {
						return reqs
					}
					reqs = append(reqs, &api.PlanRequest{Kernel: k, Size: size, MergeFactor: merge, NoAux: noAux})
				}
			}
		}
	}
	return reqs
}

// writeTail writes reqs' durable base records into a fresh tiered store
// at dir, where a restart finds them as its WAL tail.
func writeTail(tb testing.TB, dir string, reqs []*api.PlanRequest) {
	tb.Helper()
	store, _, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncNever, MemtableBytes: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	for _, req := range reqs {
		if err := store.Put(repBasePrefix+req.Key(), persistPayload(req)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestRecoverPlansNothing: a restart on a 1,000-record WAL tail spread
// over 50 stages loads every record as a stage-less recipe. Until the
// first request nothing is computed or rebuilt and no stage is built;
// then each key's first use is a hit whose body is byte-identical to a
// fresh daemon's, with the cache field set to hit.
func TestRecoverPlansNothing(t *testing.T) {
	reqs := recoveryTail(1000)
	stages := map[string]bool{}
	for _, req := range reqs {
		stages[string(req.AppendStageKey(nil))] = true
	}
	if len(stages) < 10 {
		t.Fatalf("the tail spans %d stages, want at least 10", len(stages))
	}
	dir := t.TempDir()
	writeTail(t, dir, reqs)
	s, ts, rs := newPersistentServer(t, dir, func(c *Config) { c.Fsync = "never" })
	if rs.Recovered != len(reqs) || rs.Skipped != 0 {
		t.Fatalf("recovered %d / skipped %d, want %d / 0", rs.Recovered, rs.Skipped, len(reqs))
	}
	if m := s.Metrics(); m.PlanComputations != 0 || m.PlanRebuilds != 0 || cachedStages(s.cache) != 0 {
		t.Fatalf("after recovery: %d computations, %d rebuilds, %d stages; want 0, 0, 0",
			m.PlanComputations, m.PlanRebuilds, cachedStages(s.cache))
	}
	_, fresh := newTestServer(t, Config{})
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, got := postJSON(t, ts.URL+"/v1/plan", string(body))
		_, want := postJSON(t, fresh.URL+"/v1/plan", string(body))
		want = bytes.Replace(want, []byte(`"cache":"miss"`), []byte(`"cache":"hit"`), 1)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: %s, body differs from a fresh daemon's:\n got %s\nwant %s", body, resp.Status, got, want)
		}
	}
	if m := s.Metrics(); m.PlanComputations != 0 || m.PlanRebuilds != int64(len(reqs)) || cachedStages(s.cache) != len(stages) {
		t.Fatalf("after first uses: %d computations, %d rebuilds, %d stages; want 0, %d, %d",
			m.PlanComputations, m.PlanRebuilds, cachedStages(s.cache), len(reqs), len(stages))
	}
}

// BenchmarkRecover times a warm restart on a WAL tail of 1k and 10k base
// records (see recoveryTail) and reports the heap the recovered daemon
// retains.
func BenchmarkRecover(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			writeTail(b, dir, recoveryTail(n))
			b.ReportAllocs()
			var before, after runtime.MemStats
			var retained int64
			for range b.N {
				b.StopTimer()
				s := New(Config{DiskCacheDir: dir, Fsync: "never", ScrubInterval: -1})
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				rs, err := s.Recover(context.Background())
				b.StopTimer()
				if err != nil || rs.Recovered != n {
					b.Fatalf("recovered %d of %d records: %v", rs.Recovered, n, err)
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				retained = int64(after.HeapAlloc) - int64(before.HeapAlloc)
				runtime.KeepAlive(s)
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(retained), "retained-B")
		})
	}
}
