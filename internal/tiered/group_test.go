package tiered

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/diskchaos"
	"repro/internal/persist"
)

// slowSyncFS counts every WAL write and fsync and stretches each fsync
// by delay, standing in for a disk slow enough that concurrent writers
// queue behind one commit.
type slowSyncFS struct {
	persist.FS
	delay         time.Duration
	writes, syncs atomic.Int64
}

func (f *slowSyncFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "wal-") {
		return file, err
	}
	return &slowSyncFile{File: file, fs: f}, nil
}

type slowSyncFile struct {
	persist.File
	fs *slowSyncFS
}

func (f *slowSyncFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	return f.File.Write(p)
}

func (f *slowSyncFile) Sync() error {
	f.fs.syncs.Add(1)
	time.Sleep(f.fs.delay)
	return f.File.Sync()
}

// putAll runs one Put per key from its own goroutine and returns the
// per-key errors.
func putAll(s *Store, keys []string) []error {
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k string) {
			defer wg.Done()
			errs[i] = s.Put(k, []byte("v-"+k))
		}(i, k)
	}
	wg.Wait()
	return errs
}

func keysN(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return keys
}

// TestCommitGroupDurableAndCoalesced: 32 concurrent fsync=always writers
// all come back acked, every acked key replays after reopen, and the
// store paid fewer fsyncs than Puts.
func TestCommitGroupDurableAndCoalesced(t *testing.T) {
	dir := t.TempDir()
	fs := &slowSyncFS{FS: persist.OS(), delay: 2 * time.Millisecond}
	var groups, grouped atomic.Int64
	s, _ := openTest(t, dir, func(c *Config) {
		c.FS = fs
		c.MemtableBytes = 1 << 20 // no flush: every fsync is a commit
		c.OnCommit = func(records int) {
			groups.Add(1)
			grouped.Add(int64(records))
		}
	})
	const writers = 32
	keys := keysN("k", writers)
	for i, err := range putAll(s, keys) {
		if err != nil {
			t.Fatalf("Put(%s): %v", keys[i], err)
		}
	}
	syncs := fs.syncs.Load()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs >= writers {
		t.Fatalf("%d fsyncs for %d Puts: no group commit happened", syncs, writers)
	}
	if got := grouped.Load(); got != writers {
		t.Fatalf("group commits accounted for %d records, want %d", got, writers)
	}
	if g := groups.Load(); g != syncs {
		t.Fatalf("%d group commits but %d WAL fsyncs, want one each", g, syncs)
	}

	s2, tail := openTest(t, dir, nil)
	defer s2.Close()
	if st := s2.Stats(); st.TailErr != nil || st.DroppedTailBytes != 0 {
		t.Fatalf("group-committed WAL reported tail damage: %v, %d bytes", st.TailErr, st.DroppedTailBytes)
	}
	if len(tail) != writers {
		t.Fatalf("replayed %d records, want %d", len(tail), writers)
	}
	for _, k := range keys {
		if got, ok, err := s2.Get(k); err != nil || !ok || string(got) != "v-"+k {
			t.Fatalf("acked %s after reopen: %q ok=%v err=%v", k, got, ok, err)
		}
	}
}

// TestLonePutOneWriteOneSync: with no concurrent writer there is nothing
// to wait for, so each fsync=always Put costs exactly one WAL write and
// one fsync — no gather window, no extra I/O.
func TestLonePutOneWriteOneSync(t *testing.T) {
	fs := &slowSyncFS{FS: persist.OS()}
	s, _ := openTest(t, t.TempDir(), func(c *Config) {
		c.FS = fs
		c.MemtableBytes = 1 << 20 // no flush, so no WAL rotation
	})
	defer s.Close()
	before := fs.writes.Load() // the new WAL's header
	const n = 20
	for i := 0; i < n; i++ {
		k, v := kv(i)
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if w, syncs := fs.writes.Load()-before, fs.syncs.Load(); w != n || syncs != n {
		t.Fatalf("%d serial Puts cost %d WAL writes and %d fsyncs, want %d each", n, w, syncs, n)
	}
}

// TestCommitGroupCloseDrains: Close waits for the running commit and
// its queue, so every Put admitted before Close gets an outcome (no
// hang) and every acked one is durable; a Put after Close fails.
func TestCommitGroupCloseDrains(t *testing.T) {
	dir := t.TempDir()
	fs := &slowSyncFS{FS: persist.OS(), delay: 20 * time.Millisecond}
	s, _ := openTest(t, dir, func(c *Config) { c.FS = fs })
	keys := keysN("k", 8)
	done := make(chan []error)
	go func() { done <- putAll(s, keys) }()
	time.Sleep(5 * time.Millisecond) // the first commit is inside its fsync
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	errs := <-done
	if err := s.Put("late", []byte("v")); err == nil {
		t.Fatal("Put after Close succeeded")
	}

	s2, _ := openTest(t, dir, nil)
	defer s2.Close()
	acked := 0
	for i, k := range keys {
		if errs[i] != nil {
			continue
		}
		acked++
		if _, ok, _ := s2.Get(k); !ok {
			t.Fatalf("Put(%s) was acked but is not durable after Close", k)
		}
	}
	if acked == 0 {
		t.Fatal("Close rejected every queued Put instead of draining them")
	}
}

// TestCommitGroupFlushesUnderLoad: 32 writers issuing back-to-back
// fsync=always Puts keep the queue non-empty, yet the memtable still
// flushes and stays bounded while they run, because every leader hands
// off after one group and checks the budget.
func TestCommitGroupFlushesUnderLoad(t *testing.T) {
	const (
		writers  = 32
		memBytes = 1 << 10
		bound    = 64 * memBytes
	)
	s, _ := openTest(t, t.TempDir(), func(c *Config) {
		c.MemtableBytes = memBytes
		c.CompactTrigger = 1 << 20 // keep compaction out of the timing
	})
	defer s.Close()
	var written, peak atomic.Int64
	stop := make(chan struct{})
	errc := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := bytes.Repeat([]byte{'v'}, 64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("w%02d-%06d", w, i)
				if err := s.Put(k, val); err != nil {
					errc <- err
					return
				}
				written.Add(int64(len(k) + len(val)))
				s.mu.Lock()
				m := s.memBytes
				s.mu.Unlock()
				for p := peak.Load(); m > p && !peak.CompareAndSwap(p, m); p = peak.Load() {
				}
			}
		}(w)
	}
	deadline := time.Now().Add(30 * time.Second)
	for written.Load() < 4*bound || s.Stats().Flushes < 2 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	flushes, total := s.Stats().Flushes, written.Load()
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("Put under load: %v", err)
	}
	if flushes < 2 {
		t.Fatalf("%d flushes while %d bytes were written under load, want >= 2", flushes, total)
	}
	if p := peak.Load(); p > bound {
		t.Fatalf("memtable peaked at %d bytes under load (budget %d, %d written), want <= %d", p, memBytes, total, bound)
	}
}

// TestCommitGroupSyncFailureFailsGroup: an fsync EIO on the WAL fails
// every Put in the group with ErrDegraded, acks none of them (not even
// in the live memtable), latches the store once, and keeps every record
// acked before the fault.
func TestCommitGroupSyncFailureFailsGroup(t *testing.T) {
	dir := t.TempDir()
	chaos, err := diskchaos.New(diskchaos.Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var degrades, largest atomic.Int64
	s, _ := openTest(t, dir, func(c *Config) {
		c.FS = &slowSyncFS{FS: chaos, delay: 10 * time.Millisecond}
		c.OnDegrade = func(error) { degrades.Add(1) }
		c.OnCommit = func(records int) {
			if int64(records) > largest.Load() {
				largest.Store(int64(records))
			}
		}
	})
	acked := keysN("acked", 3)
	for _, k := range acked {
		if err := s.Put(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	// The next fsync still succeeds; the one after it, and every later
	// one, fails. A lone Put takes the good fsync while the rest queue up
	// behind it and commit as one group into the failing one.
	if err := chaos.Arm([]diskchaos.Rule{
		{Op: diskchaos.OpSync, Path: "wal-", Kind: diskchaos.KindEIO, After: 2, Count: -1},
	}); err != nil {
		t.Fatal(err)
	}
	first := make(chan error)
	go func() { first <- s.Put("first", []byte("v-first")) }()
	time.Sleep(2 * time.Millisecond) // "first" is inside its fsync
	largest.Store(0)
	failed := keysN("lost", 16)
	for i, err := range putAll(s, failed) {
		if !errors.Is(err, persist.ErrDegraded) {
			t.Fatalf("Put(%s) in a failed group: %v, want ErrDegraded", failed[i], err)
		}
	}
	if err := <-first; err != nil {
		t.Fatalf("Put before the failing fsync: %v", err)
	}
	acked = append(acked, "first")
	if chaos.TotalInjected() == 0 {
		t.Fatal("armed sync fault never fired")
	}
	if largest.Load() < 2 {
		t.Fatalf("largest group held %d Puts; the failure never hit a real group", largest.Load())
	}
	for _, k := range failed {
		if _, ok, _ := s.Get(k); ok {
			t.Fatalf("record %s from a failed group is visible", k)
		}
	}
	if err := s.Put("late", []byte("v")); !errors.Is(err, persist.ErrDegraded) {
		t.Fatalf("Put after the latch: %v", err)
	}
	s.Close()
	// OnDegrade runs on its own goroutine; give it a moment.
	for i := 0; i < 1000 && degrades.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := degrades.Load(); n != 1 {
		t.Fatalf("OnDegrade fired %d times, want 1", n)
	}

	s2, _ := openTest(t, dir, nil)
	defer s2.Close()
	for _, k := range acked {
		if got, ok, _ := s2.Get(k); !ok || string(got) != "v-"+k {
			t.Fatalf("record %s acked before the fault lost after reopen", k)
		}
	}
}

// TestCommitGroupOffByPolicy: under interval and never, Puts write the
// WAL directly and never group; every record still replays.
func TestCommitGroupOffByPolicy(t *testing.T) {
	for _, policy := range []persist.Policy{persist.FsyncInterval, persist.FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			var groups atomic.Int64
			s, _ := openTest(t, dir, func(c *Config) {
				c.Fsync = policy
				c.MemtableBytes = 1 << 20
				c.OnCommit = func(int) { groups.Add(1) }
			})
			keys := keysN("k", 16)
			for i, err := range putAll(s, keys) {
				if err != nil {
					t.Fatalf("Put(%s): %v", keys[i], err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if g := groups.Load(); g != 0 {
				t.Fatalf("%d group commits under fsync=%s", g, policy)
			}
			s2, tail := openTest(t, dir, nil)
			defer s2.Close()
			if len(tail) != len(keys) {
				t.Fatalf("replayed %d records, want %d", len(tail), len(keys))
			}
		})
	}
}

func TestPutAfterCloseFails(t *testing.T) {
	s, _ := openTest(t, t.TempDir(), nil)
	s.Close()
	if err := s.Put("k", nil); err == nil {
		t.Fatal("Put after Close succeeded")
	}
}

// gateFS holds the first segment write at OpenFile until release is
// closed (signalling started when it gets there), and counts the
// segment read handles still open.
type gateFS struct {
	persist.FS
	once             sync.Once
	started, release chan struct{}
	open             atomic.Int64
}

func (f *gateFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	base := filepath.Base(name)
	if strings.HasSuffix(base, ".sst.tmp") {
		f.once.Do(func() { close(f.started) })
		<-f.release
	}
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(base, ".sst") || flag != os.O_RDONLY {
		return file, err
	}
	f.open.Add(1)
	return &countedFile{File: file, open: &f.open}, nil
}

type countedFile struct {
	persist.File
	open *atomic.Int64
}

func (f *countedFile) Close() error {
	f.open.Add(-1)
	return f.File.Close()
}

// TestCloseWaitsForInlineFlush: a Put that crosses the memtable budget
// flushes on its own goroutine; Close, called while that flush is still
// writing its segment, waits for it, leaves no segment file open, and a
// reopen replays every acked key.
func TestCloseWaitsForInlineFlush(t *testing.T) {
	dir := t.TempDir()
	fs := &gateFS{FS: persist.OS(), started: make(chan struct{}), release: make(chan struct{})}
	s, _ := openTest(t, dir, func(c *Config) { c.FS = fs })
	ackedc := make(chan []string)
	go func() {
		// The Put that starts the flush blocks in it; once Close has run,
		// the next Put fails and the loop ends.
		var acked []string
		for i := 0; ; i++ {
			k, v := kv(i)
			if s.Put(k, v) != nil {
				ackedc <- acked
				return
			}
			acked = append(acked, k)
		}
	}()
	<-fs.started
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	var closeErr error
	early := false
	select {
	case closeErr = <-closed:
		early = true
		t.Error("Close returned while a flush was still writing its segment")
	case <-time.After(50 * time.Millisecond):
	}
	close(fs.release)
	acked := <-ackedc
	if !early {
		closeErr = <-closed
	}
	if closeErr != nil {
		t.Fatal(closeErr)
	}
	if n := fs.open.Load(); n != 0 {
		t.Fatalf("%d segment files still open after Close", n)
	}
	if len(acked) == 0 {
		t.Fatal("no Put was acked")
	}

	s2, _ := openTest(t, dir, nil)
	defer s2.Close()
	for _, k := range acked {
		if _, ok, _ := s2.Get(k); !ok {
			t.Fatalf("acked key %s missing after reopen", k)
		}
	}
}

// TestFlushWaitsForRunningFlush: Flush, called while a flush another
// goroutine started is still writing its segment, waits for that flush
// and then flushes what was Put since, so on return both are segments.
func TestFlushWaitsForRunningFlush(t *testing.T) {
	dir := t.TempDir()
	fs := &gateFS{FS: persist.OS(), started: make(chan struct{}), release: make(chan struct{})}
	s, _ := openTest(t, dir, func(c *Config) {
		c.FS = fs
		c.MemtableBytes = 1 << 20 // only explicit flushes
	})
	defer s.Close()
	put := func(i int) {
		k, v := kv(i)
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	put(0)
	first := make(chan error, 1)
	go func() { first <- s.Flush() }()
	<-fs.started
	put(1)
	second := make(chan error, 1)
	go func() { second <- s.Flush() }()
	select {
	case err := <-second:
		second <- err
		t.Error("Flush returned while another flush was still writing its segment")
	case <-time.After(50 * time.Millisecond):
	}
	close(fs.release)
	for _, c := range []chan error{first, second} {
		if err := <-c; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Flushes; got != 2 {
		t.Fatalf("%d flushes after both Flush calls returned, want 2", got)
	}
}

// TestFsyncIntervalFlushes: under the interval policy the background
// loop fsyncs the WAL without any caller asking.
func TestFsyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	fs := &slowSyncFS{FS: persist.OS()}
	s, _ := openTest(t, dir, func(c *Config) {
		c.FS = fs
		c.Fsync = persist.FsyncInterval
	})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000 && fs.syncs.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if fs.syncs.Load() == 0 {
		t.Fatal("the interval loop never fsynced the WAL")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, tail := openTest(t, dir, nil)
	defer s2.Close()
	if len(tail) != 1 {
		t.Fatalf("interval-flushed record lost: %d records", len(tail))
	}
}

// TestIntervalFsyncFailureLatches: a failed background fsync latches the
// store even though no Put observed it.
func TestIntervalFsyncFailureLatches(t *testing.T) {
	chaos, err := diskchaos.New(diskchaos.Plan{Seed: 1, Rules: []diskchaos.Rule{
		{Op: diskchaos.OpSync, Path: "wal-", Kind: diskchaos.KindEIO, Count: -1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	degraded := make(chan error, 1)
	s, _ := openTest(t, t.TempDir(), func(c *Config) {
		c.FS = chaos
		c.Fsync = persist.FsyncInterval
		c.OnDegrade = func(cause error) { degraded <- cause }
	})
	defer s.Close()
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("interval-policy Put before the flush: %v", err)
	}
	select {
	case cause := <-degraded:
		if !errors.Is(cause, persist.ErrDegraded) || !strings.Contains(cause.Error(), "injected") {
			t.Fatalf("latched on %v, want the injected fault", cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("background fsync failure never latched the store")
	}
	if err := s.Put("k2", []byte("v")); !errors.Is(err, persist.ErrDegraded) {
		t.Fatalf("Put after the background latch: %v", err)
	}
}

// TestFaultFreePlanIsNoOp: an empty fault plan is a strict pass-through,
// so the same Puts, flush and compaction leave byte-identical files on
// the fault FS and on the real one.
func TestFaultFreePlanIsNoOp(t *testing.T) {
	run := func(dir string, fs persist.FS) {
		s, _ := openTest(t, dir, func(c *Config) { c.FS = fs })
		for i := 0; i < 40; i++ {
			k, v := kv(i)
			if err := s.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("tail", []byte(`{"v":9}`)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	real, faulted := t.TempDir(), t.TempDir()
	chaos, err := diskchaos.New(diskchaos.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	run(real, nil)
	run(faulted, chaos)
	if n := chaos.TotalInjected(); n != 0 {
		t.Fatalf("empty plan injected %d faults", n)
	}
	names, err := listDir(real)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("store left only %v; want a segment, the manifest and a WAL", names)
	}
	for _, name := range names {
		a, err := os.ReadFile(filepath.Join(real, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(faulted, name))
		if err != nil {
			t.Fatalf("%s missing under the empty fault plan: %v", name, err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between the real FS and an empty fault plan", name)
		}
	}
}

// The group-commit comparison: fsync=always Put cost with 32 writers per
// CPU (amortized over one fsync per group) and with one writer (exactly
// one write and one fsync per Put).
func BenchmarkTierPutAlwaysParallel(b *testing.B) {
	s, _, err := Open(Config{Dir: b.TempDir(), Fsync: persist.FsyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte("x"), 128)
	var next atomic.Int64
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := s.Put(fmt.Sprintf("bench-%d", next.Add(1)), val); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(s.Stats().Flushes), "flushes")
}

func BenchmarkTierPutAlwaysSerial(b *testing.B) {
	s, _, err := Open(Config{Dir: b.TempDir(), Fsync: persist.FsyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte("x"), 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("bench-%d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Stats().Flushes), "flushes")
}
