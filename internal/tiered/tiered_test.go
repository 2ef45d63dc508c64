package tiered

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/persist"
)

func openTest(t *testing.T, dir string, mut func(*Config)) (*Store, []persist.Record) {
	t.Helper()
	cfg := Config{
		Dir:            dir,
		Fsync:          persist.FsyncAlways,
		MemtableBytes:  2 << 10, // tiny: a handful of records per flush
		CompactTrigger: 1 << 30, // compaction only when a test asks
	}
	if mut != nil {
		mut(&cfg)
	}
	s, tail, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, tail
}

func kv(i int) (string, []byte) {
	return fmt.Sprintf("kernel=matmul|size=%04d|test", i),
		[]byte(fmt.Sprintf(`{"plan":%d,"payload":"%0100d"}`, i, i))
}

// TestPutGetAcrossFlushes: values survive the memtable → segment
// demotion byte-identically.
func TestPutGetAcrossFlushes(t *testing.T) {
	s, _ := openTest(t, t.TempDir(), nil)
	defer s.Close()
	const n = 200
	for i := 0; i < n; i++ {
		k, v := kv(i)
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	st := s.Stats()
	if st.Segments == 0 || st.Flushes == 0 {
		t.Fatalf("expected flushes with a 2KiB memtable, stats %+v", st)
	}
	for i := 0; i < n; i++ {
		k, v := kv(i)
		got, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
		}
		if string(got) != string(v) {
			t.Fatalf("Get(%d) value mismatch", i)
		}
	}
	if _, ok, err := s.Get("kernel=absent|nothere"); ok || err != nil {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.BloomNegatives == 0 {
		t.Fatalf("expected bloom negatives scanning %d segments, stats %+v", st.Segments, st)
	}
}

// TestRestartReplaysOnlyTail is the O(tail) startup contract: after a
// flush, reopen must hand back only the records written since, while
// the flushed keys stay readable from segments.
func TestRestartReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, nil)
	const flushed, tail = 40, 5
	for i := 0; i < flushed; i++ {
		k, v := kv(i)
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := flushed; i < flushed+tail; i++ {
		k, v := kv(i)
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, recs := openTest(t, dir, nil)
	defer s2.Close()
	if len(recs) != tail {
		t.Fatalf("reopen replayed %d records, want only the %d-record tail", len(recs), tail)
	}
	for i, rec := range recs {
		k, v := kv(flushed + i)
		if rec.Key != k || string(rec.Value) != string(v) {
			t.Fatalf("tail record %d = %q, want %q", i, rec.Key, k)
		}
	}
	for i := 0; i < flushed+tail; i++ {
		k, v := kv(i)
		got, ok, err := s2.Get(k)
		if err != nil || !ok || string(got) != string(v) {
			t.Fatalf("Get(%d) after reopen: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestCompactionDropsSuperseded: rewriting every key and compacting
// must leave one live version per key and newest values winning.
func TestCompactionDropsSuperseded(t *testing.T) {
	s, _ := openTest(t, t.TempDir(), nil)
	defer s.Close()
	const n = 50
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			k, _ := kv(i)
			v := []byte(fmt.Sprintf(`{"round":%d,"i":%d,"pad":"%060d"}`, round, i, i))
			if err := s.Put(k, v); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	before := s.Stats()
	if before.Keys <= n {
		t.Fatalf("pre-compaction Keys=%d should count duplicates beyond %d", before.Keys, n)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.Compactions != 1 {
		t.Fatalf("Compactions=%d, want 1", after.Compactions)
	}
	if after.Keys != n {
		t.Fatalf("post-compaction Keys=%d, want exactly %d (superseded dropped)", after.Keys, n)
	}
	for i := 0; i < n; i++ {
		k, _ := kv(i)
		got, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
		}
		if !strings.Contains(string(got), `"round":2`) {
			t.Fatalf("Get(%d) returned a superseded version: %s", i, got)
		}
	}
}

// TestBudgetEviction: compaction under a byte budget evicts whole old
// segments; evicted keys miss cleanly (the cache contract) and the tier
// lands at or under budget.
func TestBudgetEviction(t *testing.T) {
	const budget = 16 << 10
	s, _ := openTest(t, t.TempDir(), func(c *Config) { c.BudgetBytes = budget })
	defer s.Close()
	const n = 300
	for i := 0; i < n; i++ {
		k, v := kv(i)
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions with %d keys against a %dB budget, stats %+v", n, budget, st)
	}
	if st.Bytes > budget {
		t.Fatalf("post-compaction Bytes=%d exceeds budget %d", st.Bytes, budget)
	}
	hits, misses := 0, 0
	for i := 0; i < n; i++ {
		k, v := kv(i)
		got, ok, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if ok {
			hits++
			if string(got) != string(v) {
				t.Fatalf("surviving key %d corrupted", i)
			}
		} else {
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("eviction should be partial: hits=%d misses=%d", hits, misses)
	}
}

// TestTornTailRepair: garbage appended to the WAL (a crash's partial
// frame) is truncated away on reopen, every intact record survives, and
// Stats reports the dropped bytes and why.
func TestTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, nil)
	for i := 0; i < 3; i++ {
		k, v := kv(i)
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Tear the newest WAL's tail.
	names, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wal string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") {
			wal = n // sorted: last one wins
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, wal), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{42, 0, 0, 0, 99, 99}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, recs := openTest(t, dir, nil)
	defer s2.Close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records after torn tail, want 3", len(recs))
	}
	if st := s2.Stats(); st.DroppedTailBytes != int64(len(torn)) || st.TailErr == nil {
		t.Fatalf("torn tail reported as %d bytes, err %v; want %d bytes and an error", st.DroppedTailBytes, st.TailErr, len(torn))
	}
}

// TestOrphanSweep: segment and temp files a crash left outside the
// manifest are removed at open.
func TestOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"seg-09999999.sst", "seg-00000042.sst.tmp", "MANIFEST.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := openTest(t, dir, nil)
	defer s.Close()
	names, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.Contains(n, "09999999") || strings.HasSuffix(n, ".tmp") {
			t.Fatalf("orphan %q survived open (dir: %v)", n, names)
		}
	}
	// The sweep must also keep the seq counter past the orphan's so new
	// segments never collide with a recycled name.
	s.mu.Lock()
	seq := s.man.Seq
	s.mu.Unlock()
	if seq <= 9999999 {
		t.Fatalf("seq %d not advanced past swept orphan", seq)
	}
}

// TestForEach: every live key visits exactly once with its newest
// value, across memtable and both levels.
func TestForEach(t *testing.T) {
	s, _ := openTest(t, t.TempDir(), nil)
	defer s.Close()
	const n = 120
	for i := 0; i < n; i++ {
		k, v := kv(i)
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Rewrite a few keys so ForEach must prefer the memtable version.
	for i := 0; i < 10; i++ {
		k, _ := kv(i)
		if err := s.Put(k, []byte(`{"rewritten":true}`)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	got := make(map[string]string)
	err := s.ForEach(func(key string, value []byte) error {
		if _, dup := got[key]; dup {
			return fmt.Errorf("key %q visited twice", key)
		}
		got[key] = string(value)
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if len(got) != n {
		t.Fatalf("ForEach visited %d keys, want %d", len(got), n)
	}
	for i := 0; i < 10; i++ {
		k, _ := kv(i)
		if got[k] != `{"rewritten":true}` {
			t.Fatalf("ForEach returned stale value for rewritten key %d: %s", i, got[k])
		}
	}
}

// TestScrubQuarantinesCorruptSegment: a bit flip on disk is found by
// the scrub, the segment is dropped from the manifest and deleted, and
// its keys degrade to clean misses.
func TestScrubQuarantinesCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, nil)
	defer s.Close()
	for i := 0; i < 30; i++ {
		k, v := kv(i)
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	s.mu.Lock()
	if len(s.l0) == 0 {
		s.mu.Unlock()
		t.Fatal("no segment to corrupt")
	}
	victim := s.l0[0].meta.Name
	s.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(dir, victim), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	scanned, quarantined := s.Scrub(nil)
	if scanned == 0 || quarantined != 1 {
		t.Fatalf("Scrub scanned=%d quarantined=%d, want 1 quarantine", scanned, quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, victim)); !os.IsNotExist(err) {
		t.Fatalf("quarantined segment %s still on disk (err=%v)", victim, err)
	}
	// Keys from the sick segment now miss cleanly — and a reopen agrees
	// with the rewritten manifest.
	if _, ok, err := s.Get("kernel=matmul|size=0000|test"); ok || err != nil {
		t.Fatalf("post-quarantine Get: ok=%v err=%v, want clean miss", ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, _ := openTest(t, dir, nil)
	defer s2.Close()
	if st := s2.Stats(); st.Quarantined != 0 && st.Segments != 0 {
		t.Fatalf("reopen found inconsistent state: %+v", st)
	}
}

// TestDegradedLatchWrapsPersistSentinel: the serving layer keys its
// read-only handling off persist.ErrDegraded; the tier must speak it.
func TestDegradedLatchWrapsPersistSentinel(t *testing.T) {
	s, _ := openTest(t, t.TempDir(), nil)
	defer s.Close()
	k, v := kv(1)
	if err := s.Put(k, v); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s.mu.Lock()
	s.latchLocked(errors.New("synthetic disk failure"))
	s.mu.Unlock()
	if err := s.Put("x", []byte("y")); !errors.Is(err, persist.ErrDegraded) {
		t.Fatalf("degraded Put error %v does not wrap persist.ErrDegraded", err)
	}
	if err := s.Degraded(); !errors.Is(err, persist.ErrDegraded) {
		t.Fatalf("Degraded() = %v", err)
	}
	// Reads keep working: degraded means read-only, not dead.
	if got, ok, err := s.Get(k); err != nil || !ok || string(got) != string(v) {
		t.Fatalf("degraded Get: ok=%v err=%v", ok, err)
	}
}

// TestConcurrentPutGet hammers the store from many goroutines with a
// tiny memtable so flushes and compactions race live traffic. Run under
// -race in CI.
func TestConcurrentPutGet(t *testing.T) {
	s, _ := openTest(t, t.TempDir(), func(c *Config) {
		c.Fsync = persist.FsyncNever // throughput: durability is not under test here
		c.CompactTrigger = 2
	})
	defer s.Close()
	const workers, perWorker = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k, v := kv(w*perWorker + i)
				if err := s.Put(k, v); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, _, err := s.Get(k); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < workers*perWorker; i++ {
		k, v := kv(i)
		got, ok, err := s.Get(k)
		if err != nil || !ok || string(got) != string(v) {
			t.Fatalf("final Get(%d): ok=%v err=%v", i, ok, err)
		}
	}
}

// TestGetDuringCompactionKeepsSegmentsOpen hammers Get from several
// goroutines while compactions retire every segment they snapshot. A
// compaction must not close a segment under a reader: every Get still
// finds its key, nothing panics, and no read is counted as corruption.
// Run under -race in CI.
func TestGetDuringCompactionKeepsSegmentsOpen(t *testing.T) {
	s, _ := openTest(t, t.TempDir(), func(c *Config) {
		c.Fsync = persist.FsyncNever // durability is not under test here
	})
	defer s.Close()
	const keys, rounds, readers = 300, 40, 4
	put := func(i int) {
		k, v := kv(i)
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	for i := 0; i < keys; i++ {
		put(i)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var gets, panics, misses atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					panics.Add(1)
				}
			}()
			for i := r; ; i += readers {
				select {
				case <-stop:
					return
				default:
				}
				k, v := kv(i % keys)
				got, ok, err := s.Get(k)
				gets.Add(1)
				if err != nil || !ok || string(got) != string(v) {
					misses.Add(1)
				}
			}
		}(r)
	}
	for round := 0; round < rounds; round++ {
		// Rewrite some keys with their own values so every round has a
		// fresh L0 segment for the compaction to merge.
		for i := 0; i < 20; i++ {
			put((round*20 + i) % keys)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	st := s.Stats()
	if panics.Load() != 0 || misses.Load() != 0 || st.Corruptions != 0 {
		t.Fatalf("%d gets: %d panics, %d misses, %d corruptions", gets.Load(), panics.Load(), misses.Load(), st.Corruptions)
	}
	if st.Compactions < rounds {
		t.Fatalf("compactions = %d, want >= %d", st.Compactions, rounds)
	}
}
