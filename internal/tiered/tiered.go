// Package tiered is the on-disk plan tier behind the RAM LRU: a small
// LSM tree purpose-built as a durable cache. Writes append to a WAL and
// land in a memtable; when the memtable outgrows its budget it freezes
// and flushes to an immutable L0 segment; background compaction merges
// L0 segments and the L1 run into a fresh non-overlapping L1, dropping
// superseded keys. A read consults memtable → frozen memtable → L0
// (newest first) → L1, pruned by per-segment bloom filters so an absent
// key usually costs zero disk reads and a present one costs exactly one
// block read.
//
// Restart is O(WAL tail): the MANIFEST names the live segments (opened
// by reading footer+bloom+index only) and the store replays just the
// wal-*.log files — which flushing retires promptly — instead of its
// whole history.
//
// Under FsyncAlways, concurrent Puts share one write+fsync through a
// windowless group commit (see Put), so a Put that returns nil is
// durable without every writer paying its own fsync.
//
// The tier is a cache with durability, not a database: when the disk
// budget is exceeded, compaction evicts whole segments (coarse,
// write-recency-ordered — see compact), and the owner recomputes any
// key that was dropped. Every write-path failure latches a sticky
// degraded read-only state whose errors wrap persist.ErrDegraded, which
// the serving layer turns into read-only serving. All file I/O goes
// through persist.FS, which keeps the diskchaos fault matrix in play for
// every path here.
package tiered

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/persist"
)

// syncInterval is the FsyncInterval policy's WAL flush period.
const syncInterval = 100 * time.Millisecond

// Config tunes a Store.
type Config struct {
	// Dir is the tier's directory (created if missing).
	Dir string
	// FS is the filesystem seam (default: the real one).
	FS persist.FS
	// Fsync is the WAL durability policy; under FsyncInterval the WAL
	// is fsynced every syncInterval.
	Fsync persist.Policy
	// MemtableBytes triggers a flush once the memtable holds this much
	// key+value data (default 4 MiB).
	MemtableBytes int64
	// BudgetBytes caps total segment bytes; 0 means unbounded. Exceeding
	// it makes the next compaction evict oldest-generation segments.
	BudgetBytes int64
	// CompactTrigger is how many L0 segments accumulate before a
	// background compaction starts (default 4).
	CompactTrigger int
	// OnDegrade, if set, fires exactly once when the store latches
	// degraded, outside the store's locks.
	OnDegrade func(cause error)
	// OnCommit, if set, observes how many Puts each FsyncAlways
	// group commit wrote with its one write+fsync. Called outside the
	// store's locks by the committing Put.
	OnCommit func(records int)
}

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = persist.OS()
	}
	if c.MemtableBytes <= 0 {
		c.MemtableBytes = 4 << 20
	}
	if c.CompactTrigger <= 0 {
		c.CompactTrigger = 4
	}
	return c
}

// Stats is a snapshot of the tier's counters and gauges.
type Stats struct {
	// Counters.
	DiskHits       int64 // Gets served from a segment (or pre-flush memtable)
	DiskMisses     int64 // Gets not found anywhere in the tier
	BloomNegatives int64 // segment probes answered "definitely absent" without a disk read
	Flushes        int64 // memtable → L0 segment flushes
	Compactions    int64 // completed compaction runs
	Evictions      int64 // segments dropped to stay under BudgetBytes
	Corruptions    int64 // CRC/decode failures observed on reads
	Quarantined    int64 // segments quarantined (dropped from the manifest)

	// Gauges.
	Segments int64 // live segment files
	Bytes    int64 // total segment bytes on disk
	Keys     int64 // entries across segments (counts duplicates) + memtable
	WALBytes int64 // active WAL tail size

	// Recovery report from Open: the torn or corrupt WAL tail bytes
	// replay dropped, and what stopped the first damaged replay (nil when
	// every WAL was intact). Informational: Open never fails on either.
	DroppedTailBytes int64
	TailErr          error
}

// Store is the tiered disk cache. Safe for concurrent use.
type Store struct {
	cfg Config

	mu       sync.Mutex
	mem      map[string][]byte // active memtable
	memBytes int64
	frozen   map[string][]byte // memtable being flushed (nil when idle)
	man      *manifest
	l0       []*segment // parallel to man.L0 (oldest first)
	l1       []*segment // parallel to man.L1 (sorted by MinKey)
	wal      persist.File
	walSeq   uint64
	walBytes int64
	oldWALs  []uint64 // replayed-but-unflushed WAL seqs, retired by flush
	flushing bool
	closed   bool
	// flushIdle is signalled when flushing clears.
	flushIdle *sync.Cond

	// FsyncAlways group commit (see Put). queue holds the Puts waiting
	// for the next commit; committing is true while some Put leads (or
	// has been handed the lead), writing while that leader holds the WAL
	// handle outside mu. commitIdle is signalled when either clears.
	queue      []*pending
	committing bool
	writing    bool
	commitIdle *sync.Cond

	droppedTail int64 // Stats.DroppedTailBytes
	tailErr     error // Stats.TailErr

	degraded     error // latched first write failure (nil = healthy)
	degradeFired bool

	compacting atomic.Bool
	bg         sync.WaitGroup

	// counters (atomics so Get never takes mu for bookkeeping)
	diskHits, diskMisses, bloomNegs atomic.Int64
	flushes, compactions, evictions atomic.Int64
	corruptions, quarantined        atomic.Int64
}

// Open recovers a tiered store from dir. It loads the manifest, opens
// the live segments (footer/bloom/index reads only — no data scan),
// sweeps crash debris, and replays the WAL tail into the memtable. The
// returned records are that tail, in replay order with newest-wins
// dedup, so the owner can rebuild its RAM state from exactly the data
// that never reached a segment.
func Open(cfg Config) (*Store, []persist.Record, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("tiered: Dir required")
	}
	fsys := cfg.FS
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	man, err := loadManifest(fsys, cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	names, err := listDir(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	man.Seq = maxSeq(man, names)
	sweepOrphans(fsys, cfg.Dir, man, names)

	s := &Store{
		cfg: cfg,
		mem: make(map[string][]byte),
		man: man,
	}
	s.commitIdle = sync.NewCond(&s.mu)
	s.flushIdle = sync.NewCond(&s.mu)

	// Open live segments; one that fails its structural checks is
	// quarantined on the spot (the cache recomputes; anti-entropy heals).
	openLevel := func(metas []SegmentMeta) ([]SegmentMeta, []*segment) {
		keptMeta := metas[:0]
		var kept []*segment
		for _, meta := range metas {
			seg, err := openSegment(fsys, cfg.Dir, meta)
			if err != nil {
				s.quarantined.Add(1)
				s.corruptions.Add(1)
				_ = fsys.Remove(filepath.Join(cfg.Dir, meta.Name))
				continue
			}
			keptMeta = append(keptMeta, seg.meta)
			kept = append(kept, seg)
		}
		return keptMeta, kept
	}
	l0Before, l1Before := len(man.L0), len(man.L1)
	man.L0, s.l0 = openLevel(man.L0)
	man.L1, s.l1 = openLevel(man.L1)
	if len(man.L0) != l0Before || len(man.L1) != l1Before {
		if err := saveManifest(fsys, cfg.Dir, man); err != nil {
			s.closeSegments()
			return nil, nil, err
		}
	}

	// Replay every WAL present, oldest first, so a later write to the
	// same key wins. Normally there is exactly one (the active tail); a
	// crash mid-flush leaves the frozen WAL too, and replaying both just
	// reconstructs the pre-crash memtable.
	var walSeqs []uint64
	for _, name := range names {
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			walSeqs = append(walSeqs, seqOf(name))
		}
	}
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })
	var tail []persist.Record
	pos := make(map[string]int)
	for _, seq := range walSeqs {
		path := filepath.Join(cfg.Dir, walName(seq))
		recs, goodOff, dropped, tailErr := persist.ReplayLog(fsys, path)
		s.droppedTail += dropped
		if tailErr != nil {
			if s.tailErr == nil {
				s.tailErr = tailErr
			}
			// Torn tail (the crash's final partial frame): truncate the
			// file to its last good record, same repair the WAL makes.
			if f, err := fsys.OpenFile(path, os.O_WRONLY, 0o644); err == nil {
				_ = f.Truncate(goodOff)
				_ = f.Sync()
				_ = f.Close()
			}
		}
		for _, rec := range recs {
			val := append([]byte(nil), rec.Value...)
			if old, ok := s.mem[rec.Key]; ok {
				s.memBytes -= int64(len(rec.Key) + len(old))
			}
			s.mem[rec.Key] = val
			s.memBytes += int64(len(rec.Key) + len(val))
			if i, ok := pos[rec.Key]; ok {
				tail[i] = persist.Record{Key: rec.Key, Value: val}
			} else {
				pos[rec.Key] = len(tail)
				tail = append(tail, persist.Record{Key: rec.Key, Value: val})
			}
		}
	}

	// The replayed WALs stay on disk (their data lives only in the
	// memtable) until a flush makes it segment-durable; new appends go to
	// a fresh WAL so retirement never races the active file.
	s.oldWALs = walSeqs
	s.walSeq = man.Seq
	man.Seq++
	f, err := fsys.OpenFile(filepath.Join(cfg.Dir, walName(s.walSeq)), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		s.closeSegments()
		return nil, nil, err
	}
	s.wal = f
	if _, err := f.Write([]byte(persist.Magic)); err != nil {
		_ = f.Close()
		s.closeSegments()
		return nil, nil, err
	}
	s.walBytes = int64(len(persist.Magic))

	if cfg.Fsync == persist.FsyncInterval {
		s.bg.Add(1)
		go s.syncLoop()
	}

	// A fat replayed memtable (crash before flush) is flushed now so the
	// next restart's tail is small again.
	if s.memBytes >= s.cfg.MemtableBytes {
		s.mu.Lock()
		s.maybeFlushLocked()
	}
	return s, tail, nil
}

// closeSegments drops the store's reference on every live segment; a
// segment a reader still holds closes when that reader releases it.
func (s *Store) closeSegments() {
	releaseAll(s.l0)
	releaseAll(s.l1)
}

// snapshotLocked copies the live levels and takes a reader reference on
// every segment in them, so the caller can read them outside s.mu while
// a compaction retires them. s.mu must be held; release the copies with
// releaseAll.
func (s *Store) snapshotLocked() (l0, l1 []*segment) {
	l0 = append([]*segment(nil), s.l0...)
	l1 = append([]*segment(nil), s.l1...)
	for _, seg := range l0 {
		seg.acquire()
	}
	for _, seg := range l1 {
		seg.acquire()
	}
	return l0, l1
}

// releaseAll drops one reference on each segment.
func releaseAll(segs []*segment) {
	for _, seg := range segs {
		seg.release()
	}
}

// syncLoop is the FsyncInterval background flusher.
func (s *Store) syncLoop() {
	defer s.bg.Done()
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for range t.C {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		var err error
		if s.degraded == nil && s.wal != nil {
			err = s.wal.Sync()
			if err != nil {
				s.latchLocked(err)
			}
		}
		s.mu.Unlock()
	}
}

// latchLocked records the first write-path failure and flips the store
// read-only. Caller holds mu.
func (s *Store) latchLocked(cause error) {
	if s.degraded != nil {
		return
	}
	s.degraded = fmt.Errorf("%w: tiered: %v", persist.ErrDegraded, cause)
	if s.cfg.OnDegrade != nil && !s.degradeFired {
		s.degradeFired = true
		go s.cfg.OnDegrade(s.degraded)
	}
}

// Degraded returns the latched failure, or nil while healthy.
func (s *Store) Degraded() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// pending is one FsyncAlways Put waiting for its group commit.
type pending struct {
	key   string
	value []byte
	frame []byte
	err   error
	lead  bool          // handed the lead instead of an outcome
	done  chan struct{} // closed once err is final, or lead is set
}

// Put appends one record to the WAL and memtable. The value is copied.
// Once a Put returns nil under FsyncAlways the record survives a crash.
//
// Under FsyncAlways, concurrent Puts share fsyncs (LevelDB's writer
// queue): each Put enqueues its frame, and the first one to find no
// commit running becomes the leader. The leader takes the whole queue,
// writes it with one write and one fsync outside mu, applies it to the
// memtable only after the sync succeeds and wakes its waiters. If more
// Puts queued meanwhile, it hands the lead to the front one and
// returns, so no Put commits more than one group. There is no gather
// window: a lone writer pays exactly one write and one fsync, and a
// group is never larger than the number of writers blocked behind the
// previous commit.
func (s *Store) Put(key string, value []byte) error {
	frame := persist.EncodeFrame(persist.Record{Key: key, Value: value})
	s.mu.Lock()
	if err := s.writableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if s.cfg.Fsync == persist.FsyncAlways {
		return s.commitLocked(&pending{key: key, value: value, frame: frame, done: make(chan struct{})})
	}
	if _, err := s.wal.Write(frame); err != nil {
		s.latchLocked(err)
		err = s.degraded
		s.mu.Unlock()
		return err
	}
	s.walBytes += int64(len(frame))
	s.applyLocked(key, value)
	s.flushOrUnlock()
	return nil
}

// writableLocked refuses a Put on a closed or latched store.
func (s *Store) writableLocked() error {
	if s.closed {
		return fmt.Errorf("tiered: store closed")
	}
	return s.degraded
}

// applyLocked copies one acknowledged record into the memtable.
func (s *Store) applyLocked(key string, value []byte) {
	val := append([]byte(nil), value...)
	if old, ok := s.mem[key]; ok {
		s.memBytes -= int64(len(key) + len(old))
	}
	s.mem[key] = val
	s.memBytes += int64(len(key) + len(val))
}

// flushOrUnlock releases mu, first starting a flush if the memtable has
// outgrown its budget.
func (s *Store) flushOrUnlock() {
	if s.memBytes >= s.cfg.MemtableBytes {
		s.maybeFlushLocked() // releases mu
		return
	}
	s.mu.Unlock()
}

// commitLocked enqueues p and blocks until its group is on stable
// storage (or failed), leading the commit if no other Put is or if the
// previous leader hands it the lead. Called with mu held; releases it.
func (s *Store) commitLocked(p *pending) error {
	s.queue = append(s.queue, p)
	if s.committing {
		s.mu.Unlock()
		<-p.done
		if !p.lead {
			return p.err
		}
		s.mu.Lock()
	}
	p.lead = true
	s.committing = true
	group := s.queue
	s.queue = nil
	if s.degraded != nil {
		// A flush or compaction latched the store meanwhile.
		finishGroup(group, s.degraded)
	} else {
		s.writeGroupLocked(group)
	}
	if len(s.queue) > 0 {
		next := s.queue[0]
		next.lead = true
		close(next.done)
	} else {
		s.committing = false
	}
	s.commitIdle.Broadcast()
	// Each leader checks the memtable budget while it owns the WAL, as
	// LevelDB's MakeRoomForWrite does, so rotation keeps up under load.
	s.flushOrUnlock()
	return p.err
}

// writeGroupLocked writes group with one write and one fsync outside mu,
// then applies it to the memtable. Called with mu held; holds it again
// on return.
func (s *Store) writeGroupLocked(group []*pending) {
	wal := s.wal
	s.writing = true
	s.mu.Unlock()

	buf := group[0].frame
	if len(group) > 1 {
		var n int
		for _, q := range group {
			n += len(q.frame)
		}
		buf = make([]byte, 0, n)
		for _, q := range group {
			buf = append(buf, q.frame...)
		}
	}
	n, err := wal.Write(buf)
	if err == nil {
		err = wal.Sync()
	}
	if s.cfg.OnCommit != nil {
		s.cfg.OnCommit(len(group))
	}

	s.mu.Lock()
	s.writing = false
	s.walBytes += int64(n)
	if err != nil {
		// Nothing in a failed group is acked: after a failed fsync the
		// kernel may have dropped its pages.
		s.latchLocked(err)
		finishGroup(group, s.degraded)
		return
	}
	for _, q := range group {
		s.applyLocked(q.key, q.value)
	}
	finishGroup(group, nil)
}

// finishGroup hands every Put in a committed group its outcome. The
// leader, already awake, just reads its own.
func finishGroup(group []*pending, err error) {
	for _, q := range group {
		q.err = err
		if !q.lead {
			close(q.done)
		}
	}
}

// maybeFlushLocked freezes the memtable and flushes it to an L0
// segment. Called with mu held; always releases it. The freeze+WAL
// rotation happens under the lock (cheap); the segment write does not,
// so concurrent Puts keep landing in the fresh memtable.
func (s *Store) maybeFlushLocked() {
	// A group commit writing the active WAL handle outside mu holds off
	// rotation; its leader re-checks the threshold when it is done. A
	// closing store leaves its memtable to WAL replay.
	if s.writing || s.closed || s.flushing || s.frozen != nil || len(s.mem) == 0 || s.degraded != nil {
		s.mu.Unlock()
		return
	}
	// Rotate the WAL first: frozen data = every WAL at or below the old
	// active seq, which flush retires once the segment is durable.
	newSeq := s.man.Seq
	f, err := s.cfg.FS.OpenFile(filepath.Join(s.cfg.Dir, walName(newSeq)), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		s.latchLocked(err)
		s.mu.Unlock()
		return
	}
	if _, err := f.Write([]byte(persist.Magic)); err != nil {
		_ = f.Close()
		s.latchLocked(err)
		s.mu.Unlock()
		return
	}
	s.man.Seq++
	oldWAL, oldSeq := s.wal, s.walSeq
	s.wal, s.walSeq, s.walBytes = f, newSeq, int64(len(persist.Magic))
	retire := append(append([]uint64(nil), s.oldWALs...), oldSeq)
	s.oldWALs = retire
	s.frozen = s.mem
	s.mem = make(map[string][]byte)
	s.memBytes = 0
	s.flushing = true
	// The flush runs on the caller's goroutine (often a Put's); s.bg
	// tracks it so Close waits for it before releasing the segments,
	// and a segment it adds is never left open after Close.
	s.bg.Add(1)
	defer s.bg.Done()
	segSeq := s.man.Seq
	s.man.Seq++
	s.mu.Unlock()

	// Flush durability: the frozen data is already WAL-durable, so sync
	// and close the retired WAL handle, then write the segment.
	if err := oldWAL.Sync(); err != nil {
		_ = oldWAL.Close()
		s.failFlush(err)
		return
	}
	if err := oldWAL.Close(); err != nil {
		s.failFlush(err)
		return
	}
	s.doFlush(segSeq, retire)
}

// failFlush abandons an in-progress flush: the frozen memtable stays
// readable in RAM and its WALs stay on disk, so nothing is lost — the
// store just latches degraded.
func (s *Store) failFlush(err error) {
	s.mu.Lock()
	s.flushing = false
	s.flushIdle.Broadcast()
	s.latchLocked(err)
	s.mu.Unlock()
}

// doFlush writes the frozen memtable as segment segSeq, commits it to
// the manifest, and retires the WALs it supersedes.
func (s *Store) doFlush(segSeq uint64, retire []uint64) {
	s.mu.Lock()
	frozen := s.frozen
	s.mu.Unlock()

	keys := make([]string, 0, len(frozen))
	for k := range frozen {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	w, err := newSegWriter(s.cfg.FS, s.cfg.Dir, segName(segSeq))
	if err != nil {
		s.failFlush(err)
		return
	}
	for _, k := range keys {
		if err := w.add(k, frozen[k]); err != nil {
			w.abort()
			s.failFlush(err)
			return
		}
	}
	meta, err := w.finish()
	if err != nil {
		s.failFlush(err)
		return
	}
	seg, err := openSegment(s.cfg.FS, s.cfg.Dir, meta)
	if err != nil {
		s.failFlush(err)
		return
	}

	s.mu.Lock()
	s.man.L0 = append(s.man.L0, meta)
	if err := saveManifest(s.cfg.FS, s.cfg.Dir, s.man); err != nil {
		s.man.L0 = s.man.L0[:len(s.man.L0)-1]
		s.mu.Unlock()
		seg.release()
		s.failFlush(err)
		return
	}
	s.l0 = append(s.l0, seg)
	s.frozen = nil
	s.flushing = false
	s.flushIdle.Broadcast()
	s.oldWALs = nil
	needCompact := len(s.l0) >= s.cfg.CompactTrigger ||
		(s.cfg.BudgetBytes > 0 && s.diskBytesLocked() > s.cfg.BudgetBytes)
	s.mu.Unlock()
	s.flushes.Add(1)

	// The segment now holds everything those WALs did; drop them so the
	// next restart replays only the new tail.
	for _, seq := range retire {
		_ = s.cfg.FS.Remove(filepath.Join(s.cfg.Dir, walName(seq)))
	}
	_ = s.cfg.FS.SyncDir(s.cfg.Dir)

	if needCompact {
		s.kickCompact()
	}
}

// Flush forces the memtable to disk (tests and shutdown hooks). It first
// waits out a group commit writing the WAL and a flush running on another
// goroutine, so on return every Put acked before the call sits in a
// segment, unless the store is degraded.
func (s *Store) Flush() error {
	s.mu.Lock()
	for s.writing || s.flushing {
		if s.flushing {
			s.flushIdle.Wait()
		} else {
			s.commitIdle.Wait()
		}
	}
	if len(s.mem) == 0 || s.frozen != nil {
		err := s.degraded
		s.mu.Unlock()
		return err
	}
	s.maybeFlushLocked()
	return s.Degraded()
}

func (s *Store) diskBytesLocked() int64 {
	var n int64
	for _, m := range s.man.L0 {
		n += m.Bytes
	}
	for _, m := range s.man.L1 {
		n += m.Bytes
	}
	return n
}

// Get looks a key up in the tier. ok=false with nil error is a clean
// miss (the caller recomputes). Read errors inside one segment are
// counted and treated as misses for that segment — the tier is a cache,
// so degrading to a recompute is always safe.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	if v, ok := s.mem[key]; ok {
		out := append([]byte(nil), v...)
		s.mu.Unlock()
		s.diskHits.Add(1)
		return out, true, nil
	}
	if s.frozen != nil {
		if v, ok := s.frozen[key]; ok {
			out := append([]byte(nil), v...)
			s.mu.Unlock()
			s.diskHits.Add(1)
			return out, true, nil
		}
	}
	// Snapshot the segment lists; segments are immutable and their
	// ReadAt is concurrency-safe, so the scan runs outside the lock. The
	// snapshot's references keep a segment that a compaction retires
	// meanwhile open until this scan is done with it.
	l0, l1 := s.snapshotLocked()
	s.mu.Unlock()
	defer releaseAll(l0)
	defer releaseAll(l1)

	for i := len(l0) - 1; i >= 0; i-- { // newest L0 first
		if v, ok := s.segGet(l0[i], key); ok {
			return v, true, nil
		}
	}
	for _, seg := range l1 {
		if v, ok := s.segGet(seg, key); ok {
			return v, true, nil
		}
	}
	s.diskMisses.Add(1)
	return nil, false, nil
}

// segGet probes one segment with counter bookkeeping. ok reports
// whether the probe found the key.
func (s *Store) segGet(seg *segment, key string) ([]byte, bool) {
	v, ok, bloomNeg, err := seg.get(key)
	if err != nil {
		s.corruptions.Add(1)
		return nil, false
	}
	if bloomNeg {
		s.bloomNegs.Add(1)
	}
	if ok {
		s.diskHits.Add(1)
		return v, true
	}
	return nil, false
}

// kickCompact starts a background compaction unless one is running.
func (s *Store) kickCompact() {
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		defer s.compacting.Store(false)
		s.compact()
	}()
}

// Compact runs one compaction synchronously (tests, admin hooks).
func (s *Store) Compact() error {
	if !s.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer s.compacting.Store(false)
	return s.compact()
}

// compact merges every L0 segment and the current L1 run into a fresh
// L1, newest value winning per key, then atomically swaps the manifest.
// Invariants: inputs are only removed after the new manifest (listing
// the outputs) is durable; the output run is non-overlapping and sorted;
// a compaction never runs while degraded (the latch is read-only mode).
//
// Budget: if the inputs exceed BudgetBytes, whole oldest-generation
// segments are dropped before merging — L1 first (its data is by
// construction older than any L0), then oldest L0s. Eviction is coarse
// (segment granularity) and recency is write-recency, not read-recency;
// a dropped key is simply recomputed on next touch.
func (s *Store) compact() error {
	s.mu.Lock()
	if s.closed || s.degraded != nil || len(s.l0) == 0 {
		s.mu.Unlock()
		return nil
	}
	inL0, inL1 := s.snapshotLocked()
	s.mu.Unlock()
	defer releaseAll(inL0)
	defer releaseAll(inL1)

	// Budget pre-selection: drop oldest data until inputs fit.
	var total int64
	for _, seg := range inL0 {
		total += seg.meta.Bytes
	}
	for _, seg := range inL1 {
		total += seg.meta.Bytes
	}
	dropped := make(map[*segment]bool)
	if s.cfg.BudgetBytes > 0 {
		for _, seg := range inL1 { // L1 holds the oldest generation
			if total <= s.cfg.BudgetBytes {
				break
			}
			dropped[seg] = true
			total -= seg.meta.Bytes
			s.evictions.Add(1)
		}
		for _, seg := range inL0 { // then oldest L0 first
			if total <= s.cfg.BudgetBytes {
				break
			}
			dropped[seg] = true
			total -= seg.meta.Bytes
			s.evictions.Add(1)
		}
	}

	// Merge sources: higher priority wins a key tie. L0 priority grows
	// with position (newer flush = newer data); all of L1 sits below L0.
	type source struct {
		it   *segIter
		cur  entry
		ok   bool
		prio int
	}
	var srcs []*source
	prio := 0
	for _, seg := range inL1 {
		if !dropped[seg] {
			srcs = append(srcs, &source{it: seg.iter(), prio: prio})
		}
	}
	for _, seg := range inL0 {
		prio++
		if !dropped[seg] {
			srcs = append(srcs, &source{it: seg.iter(), prio: prio})
		}
	}
	advance := func(src *source) error {
		e, ok, err := src.it.next()
		if err != nil {
			// A corrupt block inside an input: skip the rest of that
			// input (its keys recompute on demand) rather than aborting
			// the whole compaction.
			s.corruptions.Add(1)
			src.ok = false
			return nil
		}
		src.cur, src.ok = e, ok
		return nil
	}
	for _, src := range srcs {
		_ = advance(src)
	}

	// Output: a run of ~4 MiB segments.
	const outTarget = 4 << 20
	var (
		outMetas []SegmentMeta
		w        *segWriter
		werr     error
	)
	// Sequence numbers come from the shared manifest counter under the
	// lock: a flush may allocate concurrently, and names must not collide.
	allocSeq := func() uint64 {
		s.mu.Lock()
		n := s.man.Seq
		s.man.Seq++
		s.mu.Unlock()
		return n
	}
	emit := func(key string, value []byte) error {
		if w == nil {
			var err error
			w, err = newSegWriter(s.cfg.FS, s.cfg.Dir, segName(allocSeq()))
			if err != nil {
				return err
			}
		}
		if err := w.add(key, value); err != nil {
			return err
		}
		if w.bytesBuffered() >= outTarget {
			meta, err := w.finish()
			w = nil
			if err != nil {
				return err
			}
			outMetas = append(outMetas, meta)
		}
		return nil
	}
	for werr == nil {
		// Pick the smallest live key; highest priority wins ties.
		var best *source
		for _, src := range srcs {
			if !src.ok {
				continue
			}
			if best == nil || src.cur.key < best.cur.key ||
				(src.cur.key == best.cur.key && src.prio > best.prio) {
				best = src
			}
		}
		if best == nil {
			break
		}
		key := best.cur.key
		werr = emit(key, best.cur.value)
		// Consume this key from every source.
		for _, src := range srcs {
			for src.ok && src.cur.key == key {
				_ = advance(src)
			}
		}
	}
	if werr == nil && w != nil {
		meta, err := w.finish()
		w = nil
		werr = err
		if err == nil {
			outMetas = append(outMetas, meta)
		}
	}
	if werr != nil {
		if w != nil {
			w.abort()
		}
		for _, m := range outMetas {
			_ = s.cfg.FS.Remove(filepath.Join(s.cfg.Dir, m.Name))
		}
		s.mu.Lock()
		s.latchLocked(werr)
		s.mu.Unlock()
		return werr
	}

	outSegs := make([]*segment, 0, len(outMetas))
	for _, m := range outMetas {
		seg, err := openSegment(s.cfg.FS, s.cfg.Dir, m)
		if err != nil {
			releaseAll(outSegs)
			for _, om := range outMetas {
				_ = s.cfg.FS.Remove(filepath.Join(s.cfg.Dir, om.Name))
			}
			s.mu.Lock()
			s.latchLocked(err)
			s.mu.Unlock()
			return err
		}
		outSegs = append(outSegs, seg)
	}

	// Commit: new manifest keeps any L0 flushed while we merged.
	consumed := make(map[string]bool, len(inL0)+len(inL1))
	for _, seg := range inL0 {
		consumed[seg.meta.Name] = true
	}
	for _, seg := range inL1 {
		consumed[seg.meta.Name] = true
	}
	s.mu.Lock()
	var keepMeta []SegmentMeta
	var keepSegs, retired []*segment
	for i, m := range s.man.L0 {
		if !consumed[m.Name] {
			keepMeta = append(keepMeta, m)
			keepSegs = append(keepSegs, s.l0[i])
		} else {
			retired = append(retired, s.l0[i])
		}
	}
	// Every live L1 segment is an input (only compaction writes L1); a
	// scrub may have quarantined some inputs meanwhile, and those are
	// already gone from both levels.
	retired = append(retired, s.l1...)
	oldMan := *s.man
	s.man.L0 = keepMeta
	s.man.L1 = outMetas
	if err := saveManifest(s.cfg.FS, s.cfg.Dir, s.man); err != nil {
		*s.man = oldMan
		s.latchLocked(err)
		s.mu.Unlock()
		releaseAll(outSegs)
		for _, m := range outMetas {
			_ = s.cfg.FS.Remove(filepath.Join(s.cfg.Dir, m.Name))
		}
		return err
	}
	s.l0 = keepSegs
	s.l1 = outSegs
	s.mu.Unlock()
	s.compactions.Add(1)

	// Inputs are superseded by the committed manifest: drop the store's
	// references and unlink them. A reader still holding one keeps
	// reading the open file; it closes with the last reference.
	for _, seg := range retired {
		seg.release()
		_ = s.cfg.FS.Remove(filepath.Join(s.cfg.Dir, seg.meta.Name))
	}
	_ = s.cfg.FS.SyncDir(s.cfg.Dir)
	return nil
}

// Scrub re-reads every segment block and verifies its checksum, calling
// throttle(bytes) between blocks so the caller can rate-limit. A
// segment that fails is quarantined: dropped from the manifest and
// deleted, its keys left to recompute or anti-entropy healing. Returns
// segments scanned and segments quarantined.
func (s *Store) Scrub(throttle func(int)) (scanned, quarantined int) {
	s.mu.Lock()
	l0, l1 := s.snapshotLocked()
	s.mu.Unlock()
	defer releaseAll(l0)
	defer releaseAll(l1)
	for _, seg := range append(l0, l1...) {
		scanned++
		if serr := seg.scrub(throttle); serr != nil {
			s.corruptions.Add(1)
			if s.quarantine(seg) {
				quarantined++
			}
		}
	}
	return scanned, quarantined
}

// quarantine drops one segment from the manifest and deletes its file.
// Reports false if the segment was already gone (e.g. compacted away
// while the scrub read it).
func (s *Store) quarantine(sick *segment) bool {
	s.mu.Lock()
	found := false
	for i, seg := range s.l0 {
		if seg == sick {
			s.l0 = append(s.l0[:i:i], s.l0[i+1:]...)
			s.man.L0 = append(s.man.L0[:i:i], s.man.L0[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		for i, seg := range s.l1 {
			if seg == sick {
				s.l1 = append(s.l1[:i:i], s.l1[i+1:]...)
				s.man.L1 = append(s.man.L1[:i:i], s.man.L1[i+1:]...)
				found = true
				break
			}
		}
	}
	if !found {
		s.mu.Unlock()
		return false
	}
	if err := saveManifest(s.cfg.FS, s.cfg.Dir, s.man); err != nil {
		s.latchLocked(err)
	}
	s.mu.Unlock()
	sick.release()
	_ = s.cfg.FS.Remove(filepath.Join(s.cfg.Dir, sick.meta.Name))
	s.quarantined.Add(1)
	return true
}

// ForEach visits every live key newest-value-first exactly once, in no
// particular key order: memtable, frozen memtable, L0 newest-first,
// then L1. Used by keyspace transfer to stream keys the RAM tier has
// long evicted. The value slice is owned by the callback.
func (s *Store) ForEach(fn func(key string, value []byte) error) error {
	s.mu.Lock()
	memKeys := make([]entry, 0, len(s.mem))
	for k, v := range s.mem {
		memKeys = append(memKeys, entry{k, append([]byte(nil), v...)})
	}
	if s.frozen != nil {
		for k, v := range s.frozen {
			memKeys = append(memKeys, entry{k, append([]byte(nil), v...)})
		}
	}
	l0, l1 := s.snapshotLocked()
	s.mu.Unlock()
	defer releaseAll(l0)
	defer releaseAll(l1)

	seen := make(map[string]bool, len(memKeys))
	for _, e := range memKeys {
		if seen[e.key] {
			continue
		}
		seen[e.key] = true
		if err := fn(e.key, e.value); err != nil {
			return err
		}
	}
	scan := func(seg *segment) error {
		it := seg.iter()
		for {
			e, ok, err := it.next()
			if err != nil {
				s.corruptions.Add(1)
				return nil // skip the sick remainder; scrub will handle it
			}
			if !ok {
				return nil
			}
			if seen[e.key] {
				continue
			}
			seen[e.key] = true
			if err := fn(e.key, e.value); err != nil {
				return err
			}
		}
	}
	for i := len(l0) - 1; i >= 0; i-- {
		if err := scan(l0[i]); err != nil {
			return err
		}
	}
	for _, seg := range l1 {
		if err := scan(seg); err != nil {
			return err
		}
	}
	return nil
}

// Stats snapshots the tier's counters and gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Segments: int64(len(s.l0) + len(s.l1)),
		Bytes:    s.diskBytesLocked(),
		WALBytes: s.walBytes,
		Keys:     int64(len(s.mem)),

		DroppedTailBytes: s.droppedTail,
		TailErr:          s.tailErr,
	}
	if s.frozen != nil {
		st.Keys += int64(len(s.frozen))
	}
	for _, m := range s.man.L0 {
		st.Keys += m.Count
	}
	for _, m := range s.man.L1 {
		st.Keys += m.Count
	}
	s.mu.Unlock()
	st.DiskHits = s.diskHits.Load()
	st.DiskMisses = s.diskMisses.Load()
	st.BloomNegatives = s.bloomNegs.Load()
	st.Flushes = s.flushes.Load()
	st.Compactions = s.compactions.Load()
	st.Evictions = s.evictions.Load()
	st.Corruptions = s.corruptions.Load()
	st.Quarantined = s.quarantined.Load()
	return st
}

// Close syncs the WAL tail, waits for background work (a flush running
// on a Put's goroutine included), and releases every file handle. The memtable is NOT flushed: the WAL replays it on
// the next Open, which is exactly the O(tail) restart contract.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Queued Puts were admitted before the close: let the leader commit
	// them before the WAL is synced and closed under it.
	for s.committing {
		s.commitIdle.Wait()
	}
	var err error
	if s.wal != nil && s.degraded == nil {
		if serr := s.wal.Sync(); serr != nil {
			err = serr
		}
	}
	s.mu.Unlock()
	s.bg.Wait()
	s.mu.Lock()
	if s.wal != nil {
		if cerr := s.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.wal = nil
	}
	s.closeSegments()
	s.l0, s.l1 = nil, nil
	s.mu.Unlock()
	return err
}
