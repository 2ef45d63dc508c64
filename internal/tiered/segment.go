// The immutable segment: the on-disk unit of the tiered store. A segment
// is a sorted run of (key, value) entries packed into CRC-framed blocks,
// followed by a bloom filter, a sparse block index, and a fixed footer:
//
//	[8B magic "LOOPSST1"]
//	[block frame]...      sorted entries, ~32 KiB per block
//	[bloom frame]         marshalled bloom over every key
//	[index frame]         (firstKey, off, len) per block + the last key
//	[36B footer]          bloomOff, indexOff, count, CRC, "LOOPSSTF"
//
// Every frame is [u32 len][u32 CRC-32C][payload], the same envelope the
// WAL uses, so a torn or rotted region fails its checksum instead of
// decoding garbage. A lookup reads the footer, bloom, and index once at
// open (three ReadAt calls, O(1) in segment size) and afterwards costs at
// most one block ReadAt per Get. Segments are written to a temp name,
// synced, and renamed into place, so a crash mid-write leaves only an
// orphan the next Open sweeps away.
package tiered

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/persist"
)

const (
	segMagic    = "LOOPSST1"
	footerMagic = "LOOPSSTF"
	footerSize  = 8 + 8 + 8 + 4 + 8

	// blockTarget is the uncompressed payload size a data block aims for.
	// 32 KiB keeps the sparse index tiny (one entry per block) while a
	// single read amortizes well against seek cost.
	blockTarget = 32 << 10
)

// errCorrupt tags any structural failure inside a segment file. The
// store treats it as "this segment is sick" (scrub quarantines it), not
// as a lookup miss.
var errCorrupt = errors.New("tiered: corrupt segment")

// entry is one key/value pair in a segment or memtable.
type entry struct {
	key   string
	value []byte
}

// indexEntry locates one data block: the first key it holds and the
// frame's file extent.
type indexEntry struct {
	firstKey string
	off      int64
	length   int64
}

// --- writer ---

// segWriter streams a sorted run of entries into a new segment file.
// Entries must arrive in strictly increasing key order; the caller
// (memtable flush or compaction merge) owns dedup.
type segWriter struct {
	fsys      persist.FS
	dir       string
	tmpPath   string
	finalPath string
	f         persist.File

	block      []byte // current block payload under construction
	blockFirst string
	off        int64 // file offset past what has been written
	index      []indexEntry
	keys       []string // all keys, for sizing the bloom at finish
	lastKey    string
	count      int64
}

// newSegWriter opens <name>.tmp in dir for streaming.
func newSegWriter(fsys persist.FS, dir, name string) (*segWriter, error) {
	w := &segWriter{
		fsys:      fsys,
		dir:       dir,
		tmpPath:   filepath.Join(dir, name+".tmp"),
		finalPath: filepath.Join(dir, name),
	}
	f, err := fsys.OpenFile(w.tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w.f = f
	if err := w.write([]byte(segMagic)); err != nil {
		w.abort()
		return nil, err
	}
	return w, nil
}

func (w *segWriter) write(p []byte) error {
	if _, err := w.f.Write(p); err != nil {
		return err
	}
	w.off += int64(len(p))
	return nil
}

// add appends one entry. Keys must be strictly increasing.
func (w *segWriter) add(key string, value []byte) error {
	if w.count > 0 && key <= w.lastKey {
		return fmt.Errorf("tiered: segment keys out of order: %q after %q", key, w.lastKey)
	}
	if len(w.block) == 0 {
		w.blockFirst = key
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	w.block = append(w.block, tmp[:n]...)
	w.block = append(w.block, key...)
	n = binary.PutUvarint(tmp[:], uint64(len(value)))
	w.block = append(w.block, tmp[:n]...)
	w.block = append(w.block, value...)
	w.keys = append(w.keys, key)
	w.lastKey = key
	w.count++
	if len(w.block) >= blockTarget {
		return w.flushBlock()
	}
	return nil
}

func (w *segWriter) flushBlock() error {
	if len(w.block) == 0 {
		return nil
	}
	frame := persist.AppendFrame(nil, w.block)
	blockOff := w.off
	if err := w.write(frame); err != nil {
		return err
	}
	w.index = append(w.index, indexEntry{firstKey: w.blockFirst, off: blockOff, length: int64(len(frame))})
	w.block = w.block[:0]
	return nil
}

// bytesBuffered estimates how much data this writer has accumulated, for
// compaction output rotation.
func (w *segWriter) bytesBuffered() int64 { return w.off + int64(len(w.block)) }

// finish writes the bloom, index, and footer, syncs, and renames the
// segment into place. Returns the completed segment's metadata.
func (w *segWriter) finish() (SegmentMeta, error) {
	meta, err := w.finishInner()
	if err != nil {
		w.abort()
		return SegmentMeta{}, err
	}
	return meta, nil
}

func (w *segWriter) finishInner() (SegmentMeta, error) {
	if w.count == 0 {
		return SegmentMeta{}, errors.New("tiered: empty segment")
	}
	if err := w.flushBlock(); err != nil {
		return SegmentMeta{}, err
	}

	filter := newBloom(len(w.keys))
	for _, k := range w.keys {
		filter.add(k)
	}
	bloomOff := w.off
	if err := w.write(persist.AppendFrame(nil, filter.marshal())); err != nil {
		return SegmentMeta{}, err
	}

	indexOff := w.off
	if err := w.write(persist.AppendFrame(nil, encodeIndex(w.index, w.lastKey))); err != nil {
		return SegmentMeta{}, err
	}

	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[16:24], uint64(w.count))
	binary.LittleEndian.PutUint32(footer[24:28], persist.Checksum(footer[:24]))
	copy(footer[28:], footerMagic)
	if err := w.write(footer[:]); err != nil {
		return SegmentMeta{}, err
	}

	if err := w.f.Sync(); err != nil {
		return SegmentMeta{}, err
	}
	if err := w.f.Close(); err != nil {
		w.f = nil
		return SegmentMeta{}, err
	}
	w.f = nil
	if err := w.fsys.Rename(w.tmpPath, w.finalPath); err != nil {
		return SegmentMeta{}, err
	}
	if err := w.fsys.SyncDir(w.dir); err != nil {
		return SegmentMeta{}, err
	}
	return SegmentMeta{
		Name:   filepath.Base(w.finalPath),
		Bytes:  w.off,
		Count:  w.count,
		MinKey: w.index[0].firstKey,
		MaxKey: w.lastKey,
	}, nil
}

// abort discards a half-written segment. Best-effort: a leftover .tmp is
// also swept by the next Open.
func (w *segWriter) abort() {
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
	_ = w.fsys.Remove(w.tmpPath)
}

// encodeIndex renders the sparse index payload:
// [uvarint nblocks]([uvarint klen][firstKey][uvarint off][uvarint len])...
// [uvarint klen][lastKey]
func encodeIndex(idx []indexEntry, lastKey string) []byte {
	var tmp [binary.MaxVarintLen64]byte
	out := make([]byte, 0, 64*len(idx))
	n := binary.PutUvarint(tmp[:], uint64(len(idx)))
	out = append(out, tmp[:n]...)
	for _, e := range idx {
		n = binary.PutUvarint(tmp[:], uint64(len(e.firstKey)))
		out = append(out, tmp[:n]...)
		out = append(out, e.firstKey...)
		n = binary.PutUvarint(tmp[:], uint64(e.off))
		out = append(out, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(e.length))
		out = append(out, tmp[:n]...)
	}
	n = binary.PutUvarint(tmp[:], uint64(len(lastKey)))
	out = append(out, tmp[:n]...)
	out = append(out, lastKey...)
	return out
}

func decodeIndex(data []byte) (idx []indexEntry, lastKey string, err error) {
	rd := varintReader{data: data}
	nblocks := rd.uvarint()
	if nblocks > uint64(len(data)) {
		return nil, "", errCorrupt
	}
	idx = make([]indexEntry, 0, nblocks)
	for i := uint64(0); i < nblocks; i++ {
		key := rd.str()
		off := rd.uvarint()
		length := rd.uvarint()
		idx = append(idx, indexEntry{firstKey: key, off: int64(off), length: int64(length)})
	}
	lastKey = rd.str()
	if rd.err != nil {
		return nil, "", errCorrupt
	}
	return idx, lastKey, nil
}

// varintReader cursors through a payload, latching the first error.
type varintReader struct {
	data []byte
	err  error
}

func (r *varintReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.err = errCorrupt
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *varintReader) str() string {
	l := r.uvarint()
	if r.err != nil {
		return ""
	}
	if l > uint64(len(r.data)) {
		r.err = errCorrupt
		return ""
	}
	s := string(r.data[:l])
	r.data = r.data[l:]
	return s
}

func (r *varintReader) bytes() []byte {
	l := r.uvarint()
	if r.err != nil {
		return nil
	}
	if l > uint64(len(r.data)) {
		r.err = errCorrupt
		return nil
	}
	b := r.data[:l:l]
	r.data = r.data[l:]
	return b
}

// --- reader ---

// segment is an open, immutable segment: the file handle plus the
// in-memory bloom and sparse index. Safe for concurrent Gets (ReadAt has
// no cursor).
type segment struct {
	meta   SegmentMeta
	f      persist.File
	filter *bloom
	index  []indexEntry
	// refs counts the store's own reference, held while the segment is
	// live in a level, plus one per reader that snapshotted it. The file
	// closes when the last reference is released, so a compaction that
	// retires a segment never pulls the file from under a reader.
	refs atomic.Int32
}

// openSegment opens a segment file and loads its footer, bloom, and
// index — three bounded reads, independent of data size.
func openSegment(fsys persist.FS, dir string, meta SegmentMeta) (*segment, error) {
	path := filepath.Join(dir, meta.Name)
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	s, err := loadSegment(f, meta)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return s, nil
}

func loadSegment(f persist.File, meta SegmentMeta) (*segment, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if size < int64(len(segMagic))+footerSize {
		return nil, fmt.Errorf("%w: %s: truncated", errCorrupt, meta.Name)
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], size-footerSize); err != nil {
		return nil, err
	}
	if string(footer[28:]) != footerMagic {
		return nil, fmt.Errorf("%w: %s: bad footer magic", errCorrupt, meta.Name)
	}
	if persist.Checksum(footer[:24]) != binary.LittleEndian.Uint32(footer[24:28]) {
		return nil, fmt.Errorf("%w: %s: footer checksum", errCorrupt, meta.Name)
	}
	bloomOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	indexOff := int64(binary.LittleEndian.Uint64(footer[8:16]))
	count := int64(binary.LittleEndian.Uint64(footer[16:24]))
	if bloomOff < int64(len(segMagic)) || indexOff <= bloomOff || indexOff >= size-footerSize {
		return nil, fmt.Errorf("%w: %s: footer offsets", errCorrupt, meta.Name)
	}

	bloomPayload, err := readFrameAt(f, bloomOff, indexOff-bloomOff, meta.Name)
	if err != nil {
		return nil, err
	}
	filter, err := unmarshalBloom(bloomPayload)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", errCorrupt, meta.Name, err)
	}
	indexPayload, err := readFrameAt(f, indexOff, size-footerSize-indexOff, meta.Name)
	if err != nil {
		return nil, err
	}
	index, lastKey, err := decodeIndex(indexPayload)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: index", errCorrupt, meta.Name)
	}
	if len(index) == 0 {
		return nil, fmt.Errorf("%w: %s: empty index", errCorrupt, meta.Name)
	}

	s := &segment{meta: meta, f: f, filter: filter, index: index}
	s.refs.Store(1)
	s.meta.Count = count
	s.meta.Bytes = size
	s.meta.MinKey = index[0].firstKey
	s.meta.MaxKey = lastKey
	return s, nil
}

// readFrameAt reads and verifies one [len][crc][payload] frame occupying
// exactly extent bytes at off.
func readFrameAt(f persist.File, off, extent int64, name string) ([]byte, error) {
	if extent < 8 || extent > persist.MaxFrameBytes+8 {
		return nil, fmt.Errorf("%w: %s: frame extent %d", errCorrupt, name, extent)
	}
	buf := make([]byte, extent)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	payload, err := wholeFrame(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: frame: %v", errCorrupt, name, err)
	}
	return payload, nil
}

// wholeFrame checks that b holds exactly one frame (persist.NextFrame)
// and returns its payload.
func wholeFrame(b []byte) ([]byte, error) {
	payload, rest, err := persist.NextFrame(b)
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("%d bytes past the frame", len(rest))
	}
	return payload, err
}

// get looks one key up: bloom → index binary search → one block read →
// in-block scan. ok=false with nil err is a definite miss;
// bloomNeg=true means the filter answered without any disk read.
func (s *segment) get(key string) (value []byte, ok bool, bloomNeg bool, err error) {
	if key < s.meta.MinKey || key > s.meta.MaxKey {
		return nil, false, true, nil
	}
	if !s.filter.mayContain(key) {
		return nil, false, true, nil
	}
	// Last block whose firstKey <= key.
	lo, hi := 0, len(s.index)-1
	blk := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if s.index[mid].firstKey <= key {
			blk = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if blk < 0 {
		return nil, false, false, nil
	}
	entries, err := s.readBlock(s.index[blk])
	if err != nil {
		return nil, false, false, err
	}
	for _, e := range entries {
		if e.key == key {
			return e.value, true, false, nil
		}
		if e.key > key {
			break
		}
	}
	return nil, false, false, nil
}

// readBlock reads and decodes one data block.
func (s *segment) readBlock(ie indexEntry) ([]entry, error) {
	payload, err := readFrameAt(s.f, ie.off, ie.length, s.meta.Name)
	if err != nil {
		return nil, err
	}
	rd := varintReader{data: payload}
	var entries []entry
	for len(rd.data) > 0 && rd.err == nil {
		k := rd.str()
		v := rd.bytes()
		if rd.err == nil {
			entries = append(entries, entry{key: k, value: v})
		}
	}
	if rd.err != nil {
		return nil, fmt.Errorf("%w: %s: block entries", errCorrupt, s.meta.Name)
	}
	return entries, nil
}

// scrub re-reads every data block and verifies its checksum, calling
// throttle with the byte count after each block so the store can rate-
// limit. Returns the first corruption found.
func (s *segment) scrub(throttle func(int)) error {
	for _, ie := range s.index {
		if _, err := readFrameAt(s.f, ie.off, ie.length, s.meta.Name); err != nil {
			return err
		}
		if throttle != nil {
			throttle(int(ie.length))
		}
	}
	return nil
}

// acquire takes a reader reference. The caller holds the store lock and
// found the segment in a level, so the store's reference is still held.
func (s *segment) acquire() { s.refs.Add(1) }

// release drops one reference and closes the file with the last one.
func (s *segment) release() {
	if s.refs.Add(-1) == 0 {
		_ = s.f.Close()
	}
}

// --- iterator (compaction input) ---

// segIter walks a segment's entries in key order, reading one block at a
// time so a merge never holds more than a block per input in memory.
type segIter struct {
	s       *segment
	blockIx int
	entries []entry
	pos     int
}

func (s *segment) iter() *segIter { return &segIter{s: s} }

// next returns the following entry, or ok=false at the end.
func (it *segIter) next() (entry, bool, error) {
	for it.pos >= len(it.entries) {
		if it.blockIx >= len(it.s.index) {
			return entry{}, false, nil
		}
		entries, err := it.s.readBlock(it.s.index[it.blockIx])
		if err != nil {
			return entry{}, false, err
		}
		it.blockIx++
		it.entries = entries
		it.pos = 0
	}
	e := it.entries[it.pos]
	it.pos++
	return e, true, nil
}
