// Package persist holds the durable-record pieces loopmapd's store and
// its cluster share: the CRC-checksummed record frame and its log
// replay, the fsync policy, the sticky degraded-latch sentinel, the
// filesystem seam, and the Merkle digest anti-entropy compares.
//
// The store itself is internal/tiered. Because a plan is a pure
// function of its canonicalized request, the durable record is the tiny
// canonical request — not the multi-megabyte artifact — and recovery
// recomputes the plan, which is bit-identical to the one that was lost
// (the same property the paper's Algorithm 1 gives blocks: cheap to
// re-derive from Π, the dependence matrix, and the bounds).
//
// # Format
//
// A log file (and a record stream on the wire) is an 8-byte magic header
// followed by length-prefixed frames:
//
//	[uint32 payload length][uint32 CRC-32C of payload][payload]
//	payload = uvarint(len(key)) ‖ key ‖ value
//
// # Corruption tolerance
//
// A SIGKILL mid-write can leave a torn frame at a log's tail. ReplayLog
// verifies every frame's length bound and checksum and stops at the
// first bad one, reporting — never failing on — the dropped tail, so the
// owner can truncate the log back to its last good frame.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const (
	// Magic opens every log file and record stream; a format change
	// bumps the digit.
	Magic = "LOOPMAP1"

	// MaxFrameBytes bounds a frame's payload length, so a corrupt length
	// cannot provoke a giant allocation.
	MaxFrameBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of b, the checksum a frame carries over
// its payload.
func Checksum(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// AppendFrame appends payload to dst as one frame, [len][crc][payload]:
// the envelope of every log record and record stream, and of the tiered
// store's segment blocks and manifest.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...)
}

// NextFrame checks the frame at the start of b — a whole header, a
// payload length within MaxFrameBytes and within b, and the payload's
// checksum — and returns its payload and the bytes after it.
func NextFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < 8 {
		return nil, nil, errors.New("torn frame header")
	}
	n := int64(binary.LittleEndian.Uint32(b))
	if n > MaxFrameBytes || n > int64(len(b)-8) {
		return nil, nil, fmt.Errorf("bad record length %d", n)
	}
	if payload = b[8 : 8+n]; Checksum(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, nil, errors.New("checksum mismatch")
	}
	return payload, b[8+n:], nil
}

// ErrDegraded marks the sticky read-only state a store enters on its
// first write or fsync failure. Every subsequent mutation fails fast
// with an error matching this sentinel; reads and replay are unaffected.
// The latch is deliberate — after one fsync failure the kernel may have
// dropped the dirty pages, so "retry until it works" silently converts
// durability into data loss.
var ErrDegraded = errors.New("persist: store degraded (read-only after a write/sync failure)")

// Policy selects when appends reach stable storage.
type Policy int

const (
	// FsyncInterval (the default) fsyncs the log on a background ticker —
	// bounded loss, near-zero append latency.
	FsyncInterval Policy = iota
	// FsyncAlways fsyncs before an append returns: a record handed back
	// to the caller is durable.
	FsyncAlways
	// FsyncNever leaves flushing to the OS page cache.
	FsyncNever
)

// ParsePolicy maps the -fsync flag spellings to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "interval", "":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("persist: unknown fsync policy %q (have always, interval, never)", s)
	}
}

func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// Record is one durable (key, value) pair.
type Record struct {
	Key   string
	Value []byte
}

// EncodeFrame renders one record as [len][crc][payload]. A file built
// from Magic followed by EncodeFrame output replays with ReplayLog.
func EncodeFrame(rec Record) []byte {
	payload := make([]byte, 0, binary.MaxVarintLen64+len(rec.Key)+len(rec.Value))
	payload = binary.AppendUvarint(payload, uint64(len(rec.Key)))
	payload = append(payload, rec.Key...)
	payload = append(payload, rec.Value...)
	return AppendFrame(make([]byte, 0, 8+len(payload)), payload)
}

// decodePayload splits a verified payload back into a Record.
func decodePayload(payload []byte) (Record, error) {
	klen, n := binary.Uvarint(payload)
	if n <= 0 || klen > uint64(len(payload)-n) {
		return Record{}, errors.New("persist: malformed record payload")
	}
	key := string(payload[n : n+int(klen)])
	val := append([]byte(nil), payload[n+int(klen):]...)
	return Record{Key: key, Value: val}, nil
}

// ReplayLog reads every intact record of one log file, stopping at the
// first bad one. It returns the records, the offset just past the last
// good record (the truncate-repair point), the number of trailing bytes
// dropped, and a description of what stopped the scan (nil for a clean
// EOF). A missing file replays as empty.
func ReplayLog(fsys FS, path string) (recs []Record, goodOff int64, dropped int64, tailErr error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, err
	}
	name := filepath.Base(path)
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, 0, int64(len(data)), fmt.Errorf("persist: %s: bad or missing header", name)
	}
	recs, n, err := decodeFrames(data[len(Magic):])
	off := int64(len(Magic) + n)
	if err != nil {
		return recs, off, int64(len(data)) - off, fmt.Errorf("persist: %s: %w at offset %d", name, err, off)
	}
	return recs, off, 0, nil
}

// decodeFrames decodes the records framed in data up to the first frame
// that fails its checks (NextFrame) or holds no record, and returns them
// with the number of bytes they span.
func decodeFrames(data []byte) ([]Record, int, error) {
	var recs []Record
	rest := data
	for len(rest) > 0 {
		payload, next, err := NextFrame(rest)
		var rec Record
		if err == nil {
			rec, err = decodePayload(payload)
		}
		if err != nil {
			return recs, len(data) - len(rest), err
		}
		recs = append(recs, rec)
		rest = next
	}
	return recs, len(data), nil
}
