// Command diskchaos is the storage-fault smoke harness: it drives the
// daemon's durable store (internal/tiered) through seeded disk-fault
// plans and asserts the full robustness contract end to end.
//
// Four phases, each from a clean store directory:
//
//  1. No-op identity — a fault-free plan over the injection FS must leave
//     every WAL, segment and manifest byte-identical to the real
//     filesystem.
//  2. Degraded latch under concurrent load — an armed WAL-fsync fault
//     latches the store read-only exactly once; cached reads keep
//     serving 200 while new plans answer 503 + Retry-After + the
//     read-only header; a restart on the real filesystem recovers every
//     acked plan bit-identically (zero acked-durable loss).
//  3. Seeded fault matrix — GeneratePlan(seed+i) cycles at the store
//     layer: every write-path failure mode latches ErrDegraded, stays
//     sticky, and a real-FS reopen recovers every acked record in order.
//     A rename-failure cycle asserts a failed segment flush leaves no
//     .tmp behind. -plan replays a JSON plan file instead.
//  4. Two-shard repair — a segment corrupted in a stopped shard is
//     quarantined by its scrubber after restart and the shard is healed
//     from the standby via anti-entropy; corruption under a running
//     shard's feet is found and quarantined by the scrubber; a read-only
//     owner's writes fail over to the healthy forwarder.
//
// Every armed plan must inject at least one fault: a plan that matches
// no file the store touches fails the run instead of passing vacuously.
// Exit code 0 and a final PASS line mean the contract held.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/diskchaos"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/tiered"
)

var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

func logf(format string, a ...any) { fmt.Printf("diskchaos: "+format+"\n", a...) }

func fail(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "diskchaos: FAIL: "+format+"\n", a...)
	os.Exit(1)
}

func main() {
	seed := flag.Uint64("seed", 1, "base seed for generated fault plans")
	cycles := flag.Int("cycles", 6, "seeded fault-matrix cycles in phase 3")
	planPath := flag.String("plan", "", "replay a JSON fault plan file instead of generating phase-3 plans")
	flag.Parse()

	root, err := os.MkdirTemp("", "diskchaos-*")
	if err != nil {
		fail("mkdtemp: %v", err)
	}

	phaseNoOp(filepath.Join(root, "p1"))
	phaseDegradedLatch(filepath.Join(root, "p2"), *seed)
	phaseFaultMatrix(filepath.Join(root, "p3"), *seed, *cycles, *planPath)
	phaseClusterRepair(filepath.Join(root, "p4"))

	os.RemoveAll(root)
	fmt.Println("diskchaos: PASS")
}

// --- helpers ---

func mkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail("mkdir %s: %v", dir, err)
	}
	return dir
}

// genBodies yields n distinct plan-request bodies over the built-in
// kernels, cheap enough that a full phase computes in well under a second.
func genBodies(n int) []string {
	kernels := []string{"l1", "matvec", "matmul"}
	out := make([]string, 0, n)
	for size := int64(4); len(out) < n; size++ {
		for _, k := range kernels {
			out = append(out, fmt.Sprintf(`{"kernel": %q, "size": %d, "cube_dim": 3}`, k, size))
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func get(url string) (*http.Response, []byte) {
	resp, err := http.Get(url)
	if err != nil {
		fail("GET %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fail("read %s response: %v", url, err)
	}
	return resp, data
}

func post(url, body string) (*http.Response, []byte) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		fail("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fail("read %s response: %v", url, err)
	}
	return resp, data
}

// normalize strips the per-request metadata (cache outcome, cluster
// routing) so plan payloads can be compared for byte identity across
// restarts and forwarding paths.
func normalize(body []byte) string {
	var pr api.PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		fail("normalize: undecodable plan response %q: %v", body, err)
	}
	pr.Cache = ""
	pr.Cluster = nil
	b, err := json.Marshal(pr)
	if err != nil {
		fail("normalize: %v", err)
	}
	return string(b)
}

func cacheOutcome(body []byte) api.CacheOutcome {
	var pr api.PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		fail("undecodable plan response %q: %v", body, err)
	}
	return pr.Cache
}

func waitFor(d time.Duration, what string, cond func() bool) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	fail("timeout waiting for %s", what)
}

// corruptByte flips one bit of a payload byte inside a segment's first
// data block, past the 8-byte magic and the first frame header.
func corruptByte(path string, off int) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("corrupt %s: %v", path, err)
	}
	if len(data) <= off {
		fail("corrupt %s: file too small (%d bytes) for offset %d", path, len(data), off)
	}
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fail("corrupt %s: %v", path, err)
	}
}

// shard is one in-process daemon on a real TCP listener, so a stopped
// shard can be restarted on the same address.
type shard struct {
	srv  *serve.Server
	hs   *http.Server
	addr string
	url  string
}

func startShard(addr string, cfg serve.Config) (*shard, serve.RecoveryStats) {
	if cfg.Logger == nil {
		cfg.Logger = discard
	}
	srv := serve.New(cfg)
	rs, err := srv.Recover(context.Background())
	if err != nil {
		fail("recover %s: %v", cfg.DiskCacheDir, err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail("listen %s: %v", addr, err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	got := ln.Addr().String()
	return &shard{srv: srv, hs: hs, addr: got, url: "http://" + got}, rs
}

func (sh *shard) stop() {
	sh.hs.Close()
	sh.srv.Close()
}

// --- phase 1: fault-free no-op identity ---

// An empty fault plan must be a strict pass-through: the identical
// Put + flush + compact + Put sequence on the real FS and on the
// injection FS must leave byte-identical store files.
func phaseNoOp(root string) {
	logf("phase 1: fault-free plan is a no-op (byte-identical store files)")
	dirReal, dirFault := mkdir(filepath.Join(root, "real")), mkdir(filepath.Join(root, "fault"))
	ffs, err := diskchaos.New(diskchaos.Plan{})
	if err != nil {
		fail("build fault FS: %v", err)
	}

	run := func(dir string, fs persist.FS) {
		store, _, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncAlways, FS: fs, MemtableBytes: 256})
		if err != nil {
			fail("open %s: %v", dir, err)
		}
		for i := 0; i < 11; i++ {
			if err := store.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
				fail("put %s #%d: %v", dir, i, err)
			}
		}
		if err := store.Flush(); err != nil {
			fail("flush %s: %v", dir, err)
		}
		if err := store.Compact(); err != nil {
			fail("compact %s: %v", dir, err)
		}
		if err := store.Put("tail", []byte(`{"i":99}`)); err != nil {
			fail("put %s tail: %v", dir, err)
		}
		if err := store.Close(); err != nil {
			fail("close %s: %v", dir, err)
		}
	}
	run(dirReal, nil)
	run(dirFault, ffs)

	entries, err := os.ReadDir(dirReal)
	if err != nil {
		fail("list %s: %v", dirReal, err)
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(dirReal, e.Name()))
		if err != nil {
			fail("read real %s: %v", e.Name(), err)
		}
		b, err := os.ReadFile(filepath.Join(dirFault, e.Name()))
		if err != nil {
			fail("read fault %s: %v", e.Name(), err)
		}
		if !bytes.Equal(a, b) {
			fail("%s differs between real FS (%d bytes) and fault-free injection FS (%d bytes)", e.Name(), len(a), len(b))
		}
	}
	if n := ffs.TotalInjected(); n != 0 {
		fail("empty plan injected %d faults", n)
	}
	logf("phase 1: OK (%d store files byte-identical, 0 faults injected)", len(entries))
}

// --- phase 2: degraded latch under concurrent load, zero acked loss ---

func phaseDegradedLatch(root string, seed uint64) {
	logf("phase 2: WAL fault latches read-only under concurrent load")
	dir := mkdir(filepath.Join(root, "state"))
	ffs, err := diskchaos.New(diskchaos.Plan{Seed: seed})
	if err != nil {
		fail("build fault FS: %v", err)
	}
	sh, _ := startShard("127.0.0.1:0", serve.Config{
		DiskCacheDir: dir, Fsync: "always", FS: ffs, ScrubInterval: -1,
	})

	// Warm 12 plans while the disk is healthy; these are the acked set.
	bodies := genBodies(40)
	warm, fresh := bodies[:12], bodies[12:]
	acked := make(map[string]string, len(warm))
	for _, b := range warm {
		resp, data := post(sh.url+"/v1/plan", b)
		if resp.StatusCode != http.StatusOK {
			fail("warmup %s: %s: %s", b, resp.Status, data)
		}
		acked[b] = normalize(data)
	}

	rules := []diskchaos.Rule{{Op: diskchaos.OpSync, Path: "wal-", Kind: diskchaos.KindEIO, Count: -1}}
	rj, _ := json.Marshal(diskchaos.Plan{Seed: seed, Rules: rules})
	logf("phase 2: arming fault plan %s", rj)
	if err := ffs.Arm(rules); err != nil {
		fail("arm: %v", err)
	}

	// Concurrent load against the faulted disk: warm keys must keep
	// serving from cache, every new plan must answer the read-only 503.
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range warm {
				resp, data := post(sh.url+"/v1/plan", b)
				if resp.StatusCode != http.StatusOK || cacheOutcome(data) != api.CacheHit {
					errCh <- fmt.Errorf("cached read during fault: %s cache=%q", resp.Status, cacheOutcome(data))
					return
				}
			}
			for _, b := range fresh {
				resp, _ := post(sh.url+"/v1/plan", b)
				if resp.StatusCode != http.StatusServiceUnavailable {
					errCh <- fmt.Errorf("new plan during fault: %s, want 503", resp.Status)
					return
				}
				if resp.Header.Get(api.ReadOnlyHeader) != "1" || resp.Header.Get("Retry-After") == "" {
					errCh <- fmt.Errorf("read-only 503 missing headers: %v", resp.Header)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		fail("concurrent load: %v", err)
	default:
	}

	if ffs.TotalInjected() == 0 {
		fail("armed plan %s never fired", rj)
	}
	snap := sh.srv.Metrics()
	if snap.StoreDegraded != 1 {
		fail("store_degraded gauge = %d, want 1 (latch exactly once)", snap.StoreDegraded)
	}
	if snap.WALAppends != int64(len(warm)) {
		fail("wal appends = %d, want %d: a failed write was acked", snap.WALAppends, len(warm))
	}
	ready, readyBody := get(sh.url + "/readyz")
	if ready.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(readyBody), "degraded") {
		fail("/readyz = %s %q, want degraded 503", ready.Status, readyBody)
	}
	if health, _ := get(sh.url + "/healthz"); health.StatusCode != http.StatusOK {
		fail("/healthz = %s, want 200 while degraded", health.Status)
	}
	sh.stop()

	// Restart on the real filesystem: every acked plan must recover and
	// serve bit-identically from the warm cache.
	sh2, rs := startShard("127.0.0.1:0", serve.Config{
		DiskCacheDir: dir, Fsync: "always", ScrubInterval: -1,
	})
	// A failed fsync may still have left its written frame in the WAL, so
	// replay can legitimately recover more than was acked — never less.
	if rs.Recovered < len(warm) {
		fail("recovered %d plans, want >= %d (acked-durable loss)", rs.Recovered, len(warm))
	}
	for _, b := range warm {
		resp, data := post(sh2.url+"/v1/plan", b)
		if resp.StatusCode != http.StatusOK || cacheOutcome(data) != api.CacheHit {
			fail("recovered plan %s: %s cache=%q, want warm hit", b, resp.Status, cacheOutcome(data))
		}
		if got := normalize(data); got != acked[b] {
			fail("recovered plan %s differs:\n  before: %s\n  after:  %s", b, acked[b], got)
		}
	}
	sh2.stop()
	logf("phase 2: OK (%d acked plans survived, latch fired once, reads served throughout)", len(warm))
}

// --- phase 3: seeded fault matrix at the store layer ---

// waitDegradeCalls waits briefly for the store's OnDegrade callback,
// which runs on its own goroutine, and returns how often it fired.
func waitDegradeCalls(calls *atomic.Int64) int64 {
	for i := 0; i < 1000 && calls.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	return calls.Load()
}

// runFaultCycle drives one store over a fault plan: Puts until the
// plan's failure strikes, asserts the sticky degraded latch, then reopens
// on the real filesystem and verifies every acked record in order.
func runFaultCycle(dir string, plan diskchaos.Plan) {
	ffs, err := diskchaos.New(plan)
	if err != nil {
		fail("plan %s: %v", plan, err)
	}
	var degradeCalls atomic.Int64
	store, _, err := tiered.Open(tiered.Config{
		Dir: dir, Fsync: persist.FsyncAlways, FS: ffs,
		OnDegrade: func(error) { degradeCalls.Add(1) },
	})
	if err != nil {
		fail("plan %s: open: %v", plan, err)
	}
	var acked []persist.Record
	for i := 0; i < 20; i++ {
		rec := persist.Record{Key: fmt.Sprintf("k%02d", i), Value: []byte(fmt.Sprintf(`{"i":%d}`, i))}
		if err := store.Put(rec.Key, rec.Value); err != nil {
			if !errors.Is(err, persist.ErrDegraded) {
				fail("plan %s: put error not ErrDegraded: %v", plan, err)
			}
			break
		}
		acked = append(acked, rec)
	}
	if len(plan.Rules) > 0 {
		if ffs.TotalInjected() == 0 {
			fail("plan %s: injected no fault: it matches nothing the store touches", plan)
		}
		if len(acked) == 20 {
			fail("plan %s: no Put failed in 20 attempts", plan)
		}
		if store.Degraded() == nil {
			fail("plan %s: store not degraded after fault", plan)
		}
		if err := store.Put("late", []byte("x")); !errors.Is(err, persist.ErrDegraded) {
			fail("plan %s: latch not sticky: %v", plan, err)
		}
		if n := waitDegradeCalls(&degradeCalls); n != 1 {
			fail("plan %s: OnDegrade fired %d times, want 1", plan, n)
		}
	}
	store.Close()

	reopened, got, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncAlways})
	if err != nil {
		fail("plan %s: real-FS reopen: %v", plan, err)
	}
	defer reopened.Close()
	if len(got) < len(acked) {
		fail("plan %s: reopen found %d records, acked %d (acked-durable loss)", plan, len(got), len(acked))
	}
	for i, rec := range acked {
		if got[i].Key != rec.Key || !bytes.Equal(got[i].Value, rec.Value) {
			fail("plan %s: record %d mismatch: %q vs acked %q", plan, i, got[i].Key, rec.Key)
		}
	}
}

func phaseFaultMatrix(root string, seed uint64, cycles int, planPath string) {
	if planPath != "" {
		data, err := os.ReadFile(planPath)
		if err != nil {
			fail("read plan file: %v", err)
		}
		var plan diskchaos.Plan
		if err := json.Unmarshal(data, &plan); err != nil {
			fail("parse plan file: %v", err)
		}
		logf("phase 3: replaying plan file %s: %s", planPath, plan)
		runFaultCycle(mkdir(filepath.Join(root, "replay")), plan)
		logf("phase 3: OK (replayed plan held the contract)")
		return
	}

	logf("phase 3: %d seeded write-fault cycles (base seed %d)", cycles, seed)
	for c := 0; c < cycles; c++ {
		plan := diskchaos.GeneratePlan(seed + uint64(c))
		logf("phase 3: cycle %d plan %s", c, plan)
		runFaultCycle(mkdir(filepath.Join(root, fmt.Sprintf("c%02d", c))), plan)
	}

	// Rename-failure flush cycle: the segment swap fails, the store
	// latches, no stale .tmp survives, and the WALs still recover
	// everything acked.
	dir := mkdir(filepath.Join(root, "rename"))
	plan := diskchaos.Plan{Seed: seed, Rules: []diskchaos.Rule{
		{Op: diskchaos.OpRename, Path: "seg-", Kind: diskchaos.KindEIO, Count: -1},
	}}
	logf("phase 3: flush-rename cycle plan %s", plan)
	ffs, err := diskchaos.New(plan)
	if err != nil {
		fail("rename plan: %v", err)
	}
	store, _, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncAlways, FS: ffs, MemtableBytes: 128})
	if err != nil {
		fail("rename cycle open: %v", err)
	}
	var acked []string
	for i := 0; i < 20 && store.Degraded() == nil; i++ {
		key := fmt.Sprintf("k%02d", i)
		if err := store.Put(key, []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			break
		}
		acked = append(acked, key)
	}
	if ffs.TotalInjected() == 0 || !errors.Is(store.Degraded(), persist.ErrDegraded) {
		fail("failed flush rename did not latch the store (injected %d)", ffs.TotalInjected())
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		fail("stale %v left behind after failed flush", tmps)
	}
	store.Close()
	reopened, _, err := tiered.Open(tiered.Config{Dir: dir, Fsync: persist.FsyncAlways})
	if err != nil {
		fail("rename cycle reopen: %v", err)
	}
	for _, key := range acked {
		if _, ok, _ := reopened.Get(key); !ok {
			fail("rename cycle reopen lost acked record %s", key)
		}
	}
	reopened.Close()
	logf("phase 3: OK (every fault latched, stayed sticky, and lost nothing acked)")
}

// --- phase 4: two-shard quarantine, anti-entropy repair, live scrub ---

// newestSegment returns a live segment file of the store in dir.
func newestSegment(dir string) string {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.sst"))
	if err != nil || len(segs) == 0 {
		fail("no segment in %s: %v", dir, err)
	}
	return segs[len(segs)-1]
}

func phaseClusterRepair(root string) {
	logf("phase 4: two-shard corruption repair via quarantine + anti-entropy")
	dirA, dirB := mkdir(filepath.Join(root, "a")), mkdir(filepath.Join(root, "b"))
	ffsB, err := diskchaos.New(diskchaos.Plan{})
	if err != nil {
		fail("build fault FS: %v", err)
	}
	// A small memtable flushes records to segments within a few plans;
	// a high compaction trigger keeps the segments the phase corrupts
	// from being merged away underneath it.
	cfgA := serve.Config{DiskCacheDir: dirA, Fsync: "always", ScrubInterval: -1, DiskMemtableBytes: 2 << 10, CompactTrigger: 1 << 20}
	cfgB := cfgA
	cfgB.DiskCacheDir, cfgB.FS = dirB, ffsB

	shA, _ := startShard("127.0.0.1:0", cfgA)
	shB, _ := startShard("127.0.0.1:0", cfgB)
	urls := []string{shA.url, shB.url}
	enable := func(sh *shard, id int) {
		if err := sh.srv.EnableCluster(serve.ClusterOptions{
			SelfID: id, Peers: urls,
			ProbeInterval: 100 * time.Millisecond, ProbeTimeout: 500 * time.Millisecond,
			FailThreshold: 2, AntiEntropyInterval: 150 * time.Millisecond,
		}); err != nil {
			fail("enable cluster shard %d: %v", id, err)
		}
	}
	enable(shA, 0)
	enable(shB, 1)
	waitFor(5*time.Second, "cluster membership", func() bool {
		for _, sh := range []*shard{shA, shB} {
			snap := sh.srv.Metrics()
			if snap.ClusterN != 2 {
				return false
			}
			for _, p := range snap.ClusterPeers {
				if !p.Alive {
					return false
				}
			}
		}
		return true
	})

	// Drive enough keys through shard A that both shards flush segments
	// (replicas persist on the standby too).
	bodies := genBodies(24)
	want := make(map[string]string, len(bodies))
	for _, b := range bodies {
		resp, data := post(shA.url+"/v1/plan", b)
		if resp.StatusCode != http.StatusOK {
			fail("load %s: %s: %s", b, resp.Status, data)
		}
		want[b] = normalize(data)
	}
	waitFor(15*time.Second, "segments on both shards", func() bool {
		return shA.srv.Metrics().TieredSegments > 0 && shB.srv.Metrics().TieredSegments > 0
	})
	// Convergence: a clean anti-entropy round on each shard after the
	// load means owner and standby hold identical record sets.
	baseA := shA.srv.Metrics().AntiEntropyCleanRounds
	baseB := shB.srv.Metrics().AntiEntropyCleanRounds
	waitFor(15*time.Second, "anti-entropy convergence", func() bool {
		return shA.srv.Metrics().AntiEntropyCleanRounds > baseA &&
			shB.srv.Metrics().AntiEntropyCleanRounds > baseB
	})

	// Stop shard A, flip one payload byte in one of its segments, and
	// restart it on the same address. Its scrubber must quarantine the
	// segment, and anti-entropy must heal what the restarted shard lacks
	// from the standby before any client asks for it.
	shA.stop()
	seg := newestSegment(dirA)
	corruptByte(seg, 20)
	logf("phase 4: corrupted %s byte 20; restarting shard A on %s", seg, shA.addr)
	shA2, _ := startShard(shA.addr, cfgA)
	rep, ok := shA2.srv.ScrubNow()
	if !ok || rep.Quarantined < 1 {
		fail("scrub after restart quarantined %d segments, want >= 1 (report %+v)", rep.Quarantined, rep)
	}
	enable(shA2, 0)
	waitFor(20*time.Second, "anti-entropy repair of the restarted shard", func() bool {
		a, b := shA2.srv.Metrics(), shB.srv.Metrics()
		return a.AntiEntropyRecordsPulled+b.AntiEntropyRecordsPushed > 0 && a.AntiEntropyCleanRounds > 0
	})
	computed := func() int64 {
		return shA2.srv.Metrics().PlanComputations + shB.srv.Metrics().PlanComputations
	}
	before := computed()
	for _, b := range bodies {
		resp, data := post(shA2.url+"/v1/plan", b)
		if resp.StatusCode != http.StatusOK {
			fail("post-repair %s: %s", b, resp.Status)
		}
		if got := normalize(data); got != want[b] {
			fail("post-repair plan %s differs:\n  before: %s\n  after:  %s", b, want[b], got)
		}
	}
	if n := computed() - before; n != 0 {
		fail("post-repair reads recomputed %d plans: the repair had not landed before clients asked", n)
	}
	logf("phase 4: quarantine + anti-entropy repair OK (%d records verified byte-identical, 0 recomputed)", len(bodies))

	// Live scrub: corrupt one of the running standby's segments under its
	// feet. ScrubNow must quarantine it without latching the store, and
	// the next pass must be clean.
	corruptByte(newestSegment(dirB), 20)
	rep, ok = shB.srv.ScrubNow()
	if !ok || rep.Clean() {
		fail("scrub missed live corruption: ok=%v report=%+v", ok, rep)
	}
	if rep, _ := shB.srv.ScrubNow(); !rep.Clean() {
		fail("second scrub pass still dirty: %+v", rep)
	}
	snapB := shB.srv.Metrics()
	if snapB.ScrubCorrupt < 1 || snapB.TieredQuarantined < 1 {
		fail("scrub counters after quarantine: corrupt=%d quarantined=%d", snapB.ScrubCorrupt, snapB.TieredQuarantined)
	}
	if snapB.StoreDegraded != 0 {
		fail("repairable corruption latched the store")
	}
	_, metBody := get(shB.url + "/metrics")
	for _, gauge := range []string{
		"loopmapd_wal_bytes", "loopmapd_tiered_quarantined_total",
		"loopmapd_scrub_runs_total", "loopmapd_scrub_corrupt_total",
		"loopmapd_store_degraded 0",
	} {
		if !strings.Contains(string(metBody), gauge) {
			fail("/metrics missing %q", gauge)
		}
	}
	logf("phase 4: live scrub OK (dirty pass quarantined the segment, clean pass)")

	// Read-only owner failover: latch shard B's store and post new
	// B-owned plans through A. The forward comes back 503 + read-only,
	// and A must serve the plan locally instead of failing the request.
	if err := ffsB.Arm([]diskchaos.Rule{
		{Op: diskchaos.OpSync, Path: "wal-", Kind: diskchaos.KindEIO, Count: -1},
	}); err != nil {
		fail("arm shard B: %v", err)
	}
	extra := genBodies(40)[24:]
	var roBody string
	for _, b := range extra {
		resp, _ := post(shA2.url+"/v1/plan", b)
		if resp.StatusCode != http.StatusOK {
			fail("plan %s via healthy forwarder: %s", b, resp.Status)
		}
		if shA2.srv.Metrics().ForwardReadOnlyLocal >= 1 {
			roBody = b
			break
		}
	}
	if roBody == "" {
		fail("no B-owned key found in %d attempts; forward_readonly_local never fired", len(extra))
	}
	if ffsB.TotalInjected() == 0 {
		fail("shard B's armed WAL fault never fired")
	}
	// The same key straight at the degraded owner is an honest 503: B is
	// its HRW primary, never computed it (the latch rejects before
	// compute), and A's local serve did not replicate back.
	resp, _ := post(shB.url+"/v1/plan", roBody)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(api.ReadOnlyHeader) != "1" {
		fail("degraded owner answered %s to a new plan, want read-only 503", resp.Status)
	}
	logf("phase 4: read-only owner failover OK (forwarder served locally)")

	shA2.stop()
	shB.stop()
}
