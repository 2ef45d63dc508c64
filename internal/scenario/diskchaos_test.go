package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/diskchaos"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/tiered"
)

// diskFaults drives the tiered store through seeded disk-fault plans:
// a fault-free plan must be a byte-identical no-op; a WAL fault must
// latch a serving daemon read-only exactly once without losing an
// acknowledged plan; p.cycles seeded plans and a failing segment rename
// must each latch the store and lose nothing acknowledged; and in a
// two-shard cluster the scrubber must quarantine corrupt segments,
// anti-entropy must repair them from the standby, and a read-only
// owner's writes must fail over to the healthy forwarder. Every armed
// plan must inject at least one fault.
func diskFaults(t *testing.T, p params) {
	noOpPlan(t)
	readOnlyLatch(t, uint64(p.seed))
	faultMatrix(t, uint64(p.seed), p.cycles)
	clusterRepair(t)
}

// diskItems is n distinct requests, cheap enough that a phase computes
// them all in well under a second.
func diskItems(n int) []item {
	out := make([]item, n)
	for i := range out {
		cube := 3
		out[i] = planItem(api.PlanRequest{Kernel: []string{"l1", "matvec", "matmul"}[i%3], Size: int64(4 + i/3), CubeDim: &cube})
	}
	return out
}

// get returns url's response and body.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// postPlan sends it to url's /v1/plan once, with no retry, and returns
// the response with its body closed.
func postPlan(url string, it item) (*http.Response, error) {
	b, _ := json.Marshal(it.PlanRequest)
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(b))
	if err == nil {
		resp.Body.Close()
	}
	return resp, err
}

func newFaultFS(t *testing.T, plan diskchaos.Plan) *diskchaos.FS {
	t.Helper()
	ffs, err := diskchaos.New(plan)
	if err != nil {
		t.Fatalf("plan %s: %v", plan, err)
	}
	return ffs
}

// walFault fails every WAL fsync.
var walFault = []diskchaos.Rule{{Op: diskchaos.OpSync, Path: "wal-", Kind: diskchaos.KindEIO, Count: -1}}

// noOpPlan runs the same Put, flush, compact, Put sequence on the real
// filesystem and on an injection FS with no rules; the store files must
// be byte-identical and no fault injected.
func noOpPlan(t *testing.T) {
	ffs := newFaultFS(t, diskchaos.Plan{})
	run := func(fs persist.FS) string {
		dir := t.TempDir()
		store, _, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncAlways, FS: fs, MemtableBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 11; i++ {
			if err := store.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
				t.Fatal(err)
			}
		}
		for _, err := range []error{store.Flush(), store.Compact(), store.Put("tail", []byte(`{"i":99}`)), store.Close()} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	realDir, faultDir := run(nil), run(ffs)
	entries, err := os.ReadDir(realDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		a, err1 := os.ReadFile(filepath.Join(realDir, e.Name()))
		b, err2 := os.ReadFile(filepath.Join(faultDir, e.Name()))
		if err := errors.Join(err1, err2); err != nil || !bytes.Equal(a, b) {
			t.Fatalf("%s differs between the real FS (%d bytes) and the fault-free injection FS (%d bytes): %v", e.Name(), len(a), len(b), err)
		}
	}
	if n := ffs.TotalInjected(); n != 0 {
		t.Fatalf("the empty plan injected %d faults", n)
	}
}

// readOnlyLatch arms a WAL-fsync fault under a serving daemon with 12
// acknowledged plans. Under concurrent load the acknowledged plans must
// keep answering 200 from cache and every new plan 503 with Retry-After
// and the read-only header; the latch must fire once, /readyz report
// degraded and /healthz stay 200; and a restart on the real filesystem
// must recover every acknowledged plan byte-identical.
func readOnlyLatch(t *testing.T, seed uint64) {
	dir := t.TempDir()
	ffs := newFaultFS(t, diskchaos.Plan{Seed: seed})
	cfg := serve.Config{DiskCacheDir: dir, Fsync: "always", FS: ffs, ScrubInterval: -1}
	sh, _ := startShard(t, "127.0.0.1:0", cfg)
	items := diskItems(40)
	warm, fresh := items[:12], items[12:]
	led := newLedger()
	c := sh.client()
	for _, it := range warm {
		r, err := send(c, it)
		if err != nil {
			t.Fatal(err)
		}
		led.put(it, r)
	}

	t.Logf("arming diskchaos plan %s", diskchaos.Plan{Seed: seed, Rules: walFault})
	if err := ffs.Arm(walFault); err != nil {
		t.Fatal(err)
	}
	once := client.New(client.Config{BaseURL: sh.url, MaxRetries: -1})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, it := range warm {
				if r, err := send(once, it); err != nil || r.cache != api.CacheHit {
					t.Errorf("cached read of %s during the fault: %v, cache %q", it.key(), err, r.cache)
					return
				}
			}
			for _, it := range fresh {
				resp, err := postPlan(sh.url, it)
				if err != nil || resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(api.ReadOnlyHeader) != "1" || resp.Header.Get("Retry-After") == "" {
					t.Errorf("new plan %s during the fault: %v %v, want a read-only 503 with Retry-After", it.key(), err, resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if ffs.TotalInjected() == 0 {
		t.Fatal("the armed WAL fault never fired")
	}
	snap := sh.srv.Metrics()
	if snap.StoreDegraded != 1 {
		t.Fatalf("store_degraded = %d, want 1 (latched exactly once)", snap.StoreDegraded)
	}
	if snap.WALAppends != int64(len(warm)) {
		t.Fatalf("wal appends = %d, want %d: a failed write was acknowledged", snap.WALAppends, len(warm))
	}
	if resp, body := get(t, sh.url+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("degraded")) {
		t.Fatalf("/readyz = %s %q, want a degraded 503", resp.Status, body)
	}
	if resp, _ := get(t, sh.url+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %s, want 200 while degraded", resp.Status)
	}
	sh.stop()

	cfg.FS = nil
	sh2, rs := startShard(t, "127.0.0.1:0", cfg)
	// A failed fsync may have left its frame in the WAL, so replay may
	// recover more than was acknowledged, never less.
	if rs.Recovered < len(warm) {
		t.Fatalf("recovered %d plans, want >= %d", rs.Recovered, len(warm))
	}
	led.verify(t, "after the latch", sh2.client(), wantHit(t, "after the latch"))
	sh2.stop()
}

// faultCycle Puts into a store over plan until a fault strikes, checks
// the latch is sticky and reported once, and reopens on the real
// filesystem to find every acknowledged record in order.
func faultCycle(t *testing.T, plan diskchaos.Plan) {
	t.Logf("diskchaos plan %s", plan)
	dir := t.TempDir()
	ffs := newFaultFS(t, plan)
	var degraded atomic.Int64
	store, _, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncAlways, FS: ffs, OnDegrade: func(error) { degraded.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	var acked []persist.Record
	for i := 0; i < 20; i++ {
		rec := persist.Record{Key: fmt.Sprintf("k%02d", i), Value: []byte(fmt.Sprintf(`{"i":%d}`, i))}
		if err := store.Put(rec.Key, rec.Value); err != nil {
			if !errors.Is(err, persist.ErrDegraded) {
				t.Fatalf("put error %v is not ErrDegraded", err)
			}
			break
		}
		acked = append(acked, rec)
	}
	switch {
	case ffs.TotalInjected() == 0:
		t.Fatal("the plan injected no fault: it matches nothing the store touches")
	case len(acked) == 20:
		t.Fatal("no Put failed in 20 attempts")
	case store.Degraded() == nil:
		t.Fatal("the store did not latch after the fault")
	case !errors.Is(store.Put("late", []byte("x")), persist.ErrDegraded):
		t.Fatal("the latch is not sticky")
	}
	// OnDegrade runs on its own goroutine.
	waitFor(t, time.Second, "OnDegrade", func() bool { return degraded.Load() > 0 })
	if n := degraded.Load(); n != 1 {
		t.Fatalf("OnDegrade fired %d times, want 1", n)
	}
	store.Close()

	reopened, got, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if len(got) < len(acked) {
		t.Fatalf("reopen found %d records, %d were acknowledged", len(got), len(acked))
	}
	for i, rec := range acked {
		if got[i].Key != rec.Key || !bytes.Equal(got[i].Value, rec.Value) {
			t.Fatalf("record %d is %q, acknowledged %q", i, got[i].Key, rec.Key)
		}
	}
}

// faultMatrix runs faultCycle over cycles seeded plans, then fails a
// segment flush's rename: the store must latch, leave no .tmp file, and
// reopen with every acknowledged record.
func faultMatrix(t *testing.T, seed uint64, cycles int) {
	for c := 0; c < cycles; c++ {
		faultCycle(t, diskchaos.GeneratePlan(seed+uint64(c)))
	}

	dir := t.TempDir()
	plan := diskchaos.Plan{Seed: seed, Rules: []diskchaos.Rule{{Op: diskchaos.OpRename, Path: "seg-", Kind: diskchaos.KindEIO, Count: -1}}}
	t.Logf("diskchaos plan %s", plan)
	ffs := newFaultFS(t, plan)
	store, _, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncAlways, FS: ffs, MemtableBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	var acked []string
	for i := 0; i < 20 && store.Degraded() == nil; i++ {
		key := fmt.Sprintf("k%02d", i)
		if store.Put(key, []byte(fmt.Sprintf(`{"i":%d}`, i))) != nil {
			break
		}
		acked = append(acked, key)
	}
	if ffs.TotalInjected() == 0 || !errors.Is(store.Degraded(), persist.ErrDegraded) {
		t.Fatalf("a failed flush rename did not latch the store (%d injected)", ffs.TotalInjected())
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		t.Fatalf("failed flush left %v behind", tmps)
	}
	store.Close()
	reopened, _, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, key := range acked {
		if _, ok, _ := reopened.Get(key); !ok {
			t.Fatalf("reopen lost acknowledged record %s", key)
		}
	}
}

// corruptSegment flips one payload bit in the first data block of the
// newest segment in dir, past the magic and the first frame header.
func corruptSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.sst"))
	if len(segs) == 0 {
		t.Fatalf("no segment in %s", dir)
	}
	path := segs[len(segs)-1]
	data, err := os.ReadFile(path)
	if err != nil || len(data) <= 20 {
		t.Fatalf("reading %s (%d bytes): %v", path, len(data), err)
	}
	data[20] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// clusterRepair runs two shards with small memtables. A segment
// corrupted while shard A is stopped must be quarantined by its scrubber
// on restart and repaired from the standby by anti-entropy before any
// client asks; corruption under the running standby must be quarantined
// without latching its store; and once B latches read-only, A must serve
// B-owned plans itself while B answers them 503.
func clusterRepair(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	ffsB := newFaultFS(t, diskchaos.Plan{})
	// A high compaction trigger keeps the corrupted segments from being
	// merged away.
	cfgA := serve.Config{DiskCacheDir: dirA, Fsync: "always", ScrubInterval: -1, DiskMemtableBytes: 2 << 10, CompactTrigger: 1 << 20}
	cfgB := cfgA
	cfgB.DiskCacheDir, cfgB.FS = dirB, ffsB
	shA, _ := startShard(t, "127.0.0.1:0", cfgA)
	shB, _ := startShard(t, "127.0.0.1:0", cfgB)
	urls := []string{shA.url, shB.url}
	enable := func(sh *shard, id int) {
		if err := sh.srv.EnableCluster(serve.ClusterOptions{
			SelfID: id, Peers: urls, PeerOptions: serve.PeerOptions{
				ProbeInterval: 100 * time.Millisecond, ProbeTimeout: 500 * time.Millisecond,
				FailThreshold: 2, AntiEntropyInterval: 150 * time.Millisecond,
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	enable(shA, 0)
	enable(shB, 1)
	allAlive(t, urls)

	items := diskItems(40)
	led := newLedger()
	c := shA.client()
	for _, it := range items[:24] {
		r, err := send(c, it)
		if err != nil {
			t.Fatal(err)
		}
		led.put(it, r)
	}
	waitFor(t, 15*time.Second, "segments on both shards", func() bool {
		return shA.srv.Metrics().TieredSegments > 0 && shB.srv.Metrics().TieredSegments > 0
	})
	// A clean anti-entropy round on each shard after the load means owner
	// and standby hold the same records.
	cleanA, cleanB := shA.srv.Metrics().AntiEntropyCleanRounds, shB.srv.Metrics().AntiEntropyCleanRounds
	waitFor(t, 15*time.Second, "anti-entropy convergence", func() bool {
		return shA.srv.Metrics().AntiEntropyCleanRounds > cleanA && shB.srv.Metrics().AntiEntropyCleanRounds > cleanB
	})

	shA.stop()
	t.Logf("corrupted %s; restarting shard A", corruptSegment(t, dirA))
	shA2, _ := startShard(t, shA.addr, cfgA)
	if rep, ok := shA2.srv.ScrubNow(); !ok || rep.Quarantined < 1 {
		t.Fatalf("scrub after restart quarantined %d segments, want >= 1 (%+v)", rep.Quarantined, rep)
	}
	enable(shA2, 0)
	waitFor(t, 20*time.Second, "anti-entropy to repair the restarted shard", func() bool {
		a, b := shA2.srv.Metrics(), shB.srv.Metrics()
		return a.AntiEntropyRecordsPulled+b.AntiEntropyRecordsPushed > 0 && a.AntiEntropyCleanRounds > 0
	})
	computed := func() int64 { return shA2.srv.Metrics().PlanComputations + shB.srv.Metrics().PlanComputations }
	before := computed()
	led.verify(t, "after the repair", shA2.client(), nil)
	if n := computed() - before; n != 0 {
		t.Fatalf("%d plans recomputed after the repair: it had not landed before clients asked", n)
	}

	corruptSegment(t, dirB)
	if rep, ok := shB.srv.ScrubNow(); !ok || rep.Clean() {
		t.Fatalf("scrub missed live corruption: ok=%v %+v", ok, rep)
	}
	if rep, _ := shB.srv.ScrubNow(); !rep.Clean() {
		t.Fatalf("second scrub still dirty: %+v", rep)
	}
	if s := shB.srv.Metrics(); s.ScrubCorrupt < 1 || s.TieredQuarantined < 1 || s.StoreDegraded != 0 {
		t.Fatalf("after quarantine: scrub_corrupt=%d quarantined=%d store_degraded=%d", s.ScrubCorrupt, s.TieredQuarantined, s.StoreDegraded)
	}
	_, metrics := get(t, shB.url+"/metrics")
	for _, want := range []string{"loopmapd_wal_bytes", "loopmapd_tiered_quarantined_total", "loopmapd_scrub_runs_total",
		"loopmapd_scrub_corrupt_total", "loopmapd_store_degraded 0"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics lacks %q", want)
		}
	}

	t.Logf("arming diskchaos plan %s on shard B", diskchaos.Plan{Rules: walFault})
	if err := ffsB.Arm(walFault); err != nil {
		t.Fatal(err)
	}
	var readOnly *item
	for _, it := range items[24:] {
		if resp, err := postPlan(shA2.url, it); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s via the healthy forwarder: %v %v", it.key(), err, resp)
		}
		if shA2.srv.Metrics().ForwardReadOnlyLocal >= 1 {
			readOnly = &it
			break
		}
	}
	if readOnly == nil {
		t.Fatal("no B-owned key among the new plans: forward_readonly_local never fired")
	}
	if ffsB.TotalInjected() == 0 {
		t.Fatal("shard B's armed WAL fault never fired")
	}
	// B is the key's owner, never computed it (the latch rejects before
	// compute), and A's local answer was not replicated back.
	if resp, err := postPlan(shB.url, *readOnly); err != nil || resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(api.ReadOnlyHeader) != "1" {
		t.Fatalf("the degraded owner answered %v %v to a new plan, want a read-only 503", err, resp)
	}
}
