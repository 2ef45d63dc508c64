// The manifest: the single small file that makes restart O(WAL tail).
// It records which segment files are live (per level) and the next file
// sequence number; everything else in the directory — orphaned segments
// from a crash mid-flush, .tmp files from an interrupted rename — is
// swept at open. The manifest itself is a CRC-framed JSON document
// replaced atomically (write .tmp → sync → rename → dir sync), so a
// crash leaves either the old or the new manifest, never a torn one.
//
// WAL files are deliberately NOT listed: the store replays every
// wal-*.log present, in sequence order. A flushed WAL is deleted only
// after the manifest commits its segment, so a crash in between replays
// the same data twice — harmless, since the memtable's newest-wins
// insert makes replay idempotent.
package tiered

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/persist"
)

const (
	manifestName  = "MANIFEST"
	manifestMagic = "LOOPMAN1"
)

// SegmentMeta describes one live segment as the manifest records it.
type SegmentMeta struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	Count  int64  `json:"count"`
	MinKey string `json:"min_key"`
	MaxKey string `json:"max_key"`
}

// seq extracts the file sequence number from a seg-/wal- name; 0 if the
// name doesn't parse.
func seqOf(name string) uint64 {
	base := strings.TrimSuffix(strings.TrimSuffix(name, ".sst"), ".log")
	i := strings.LastIndexByte(base, '-')
	if i < 0 {
		return 0
	}
	var n uint64
	if _, err := fmt.Sscanf(base[i+1:], "%d", &n); err != nil {
		return 0
	}
	return n
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.sst", seq) }
func walName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// manifest is the persisted store state.
type manifest struct {
	// Seq is the next unused file sequence number. Monotone across the
	// store's whole life so file names are never reused.
	Seq uint64 `json:"seq"`
	// L0 holds flush outputs, newest last. L0 segments may overlap in
	// key range; reads scan them newest-first.
	L0 []SegmentMeta `json:"l0"`
	// L1 holds compaction outputs: one sorted run, non-overlapping,
	// ordered by MinKey.
	L1 []SegmentMeta `json:"l1"`
}

// saveManifest atomically replaces the manifest file.
func saveManifest(fsys persist.FS, dir string, m *manifest) error {
	doc, err := json.Marshal(m)
	if err != nil {
		return err
	}
	buf := append([]byte(manifestMagic), persist.AppendFrame(nil, doc)...)
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}

// loadManifest reads the manifest; a missing file yields a fresh empty
// one (first boot). A corrupt manifest is an error — the caller must not
// guess at which segments are live.
func loadManifest(fsys persist.FS, dir string) (*manifest, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return &manifest{Seq: 1}, nil
		}
		return nil, err
	}
	if len(data) < len(manifestMagic) || string(data[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("%w: manifest header", errCorrupt)
	}
	payload, err := wholeFrame(data[len(manifestMagic):])
	if err != nil {
		return nil, fmt.Errorf("%w: manifest frame: %v", errCorrupt, err)
	}
	var m manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest json: %v", errCorrupt, err)
	}
	if m.Seq == 0 {
		m.Seq = 1
	}
	return &m, nil
}

// live reports every segment name the manifest references.
func (m *manifest) live() map[string]bool {
	out := make(map[string]bool, len(m.L0)+len(m.L1))
	for _, s := range m.L0 {
		out[s.Name] = true
	}
	for _, s := range m.L1 {
		out[s.Name] = true
	}
	return out
}

// maxSeq returns the highest sequence number referenced by any live
// segment or present file, so Seq can be advanced past crash leftovers.
func maxSeq(m *manifest, names []string) uint64 {
	top := m.Seq
	bump := func(n uint64) {
		if n >= top {
			top = n + 1
		}
	}
	for _, s := range m.L0 {
		bump(seqOf(s.Name))
	}
	for _, s := range m.L1 {
		bump(seqOf(s.Name))
	}
	for _, name := range names {
		bump(seqOf(name))
	}
	return top
}

// sweepOrphans removes segment and temp files the manifest does not
// reference: the debris of a crash between segment rename and manifest
// commit. WAL files are never swept here — they are replayed, then
// retired by flush.
func sweepOrphans(fsys persist.FS, dir string, m *manifest, names []string) {
	liveSet := m.live()
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, ".tmp"):
			_ = fsys.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".sst") && !liveSet[name]:
			_ = fsys.Remove(filepath.Join(dir, name))
		}
	}
}

// listDir enumerates a directory's entry names. The persist.FS seam has
// no ReadDir (nothing else needed one); directory listing is a read-only
// operation with no failure-injection value, so it goes straight to the
// os package.
func listDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
