package tiered

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/persist"
)

// buildSegment writes a segment of n generated entries and opens it.
func buildSegment(t *testing.T, dir string, n int) (*segment, map[string][]byte) {
	t.Helper()
	want := make(map[string][]byte, n)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("kernel=matmul|size=%04d|key", i)
		keys = append(keys, k)
		want[k] = []byte(fmt.Sprintf(`{"plan":%d,"payload":"%070d"}`, i, i))
	}
	sort.Strings(keys)
	w, err := newSegWriter(persist.OS(), dir, "seg-00000001.sst")
	if err != nil {
		t.Fatalf("newSegWriter: %v", err)
	}
	for _, k := range keys {
		if err := w.add(k, want[k]); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	meta, err := w.finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	seg, err := openSegment(persist.OS(), dir, meta)
	if err != nil {
		t.Fatalf("openSegment: %v", err)
	}
	t.Cleanup(seg.release)
	return seg, want
}

// TestSegmentRoundTrip: every written entry reads back byte-identical,
// spanning multiple blocks, and absent keys miss cleanly.
func TestSegmentRoundTrip(t *testing.T) {
	seg, want := buildSegment(t, t.TempDir(), 2000) // ~2000 * ~110B spans several 32KiB blocks
	if len(seg.index) < 2 {
		t.Fatalf("want multiple blocks, got %d", len(seg.index))
	}
	for k, v := range want {
		got, ok, _, err := seg.get(k)
		if err != nil || !ok {
			t.Fatalf("get(%q): ok=%v err=%v", k, ok, err)
		}
		if string(got) != string(v) {
			t.Fatalf("get(%q) = %q, want %q", k, got, v)
		}
	}
	for _, absent := range []string{"", "a", "kernel=matmul|size=9999|key", "zzz"} {
		if _, ok, _, err := seg.get(absent); ok || err != nil {
			t.Fatalf("get(%q): ok=%v err=%v, want clean miss", absent, ok, err)
		}
	}
}

// TestSegmentRejectsUnsortedKeys: the writer is the sole enforcement
// point of the sorted invariant every reader binary-search relies on.
func TestSegmentRejectsUnsortedKeys(t *testing.T) {
	w, err := newSegWriter(persist.OS(), t.TempDir(), "seg-00000001.sst")
	if err != nil {
		t.Fatalf("newSegWriter: %v", err)
	}
	defer w.abort()
	if err := w.add("b", []byte("1")); err != nil {
		t.Fatalf("add b: %v", err)
	}
	if err := w.add("a", []byte("2")); err == nil {
		t.Fatal("out-of-order add accepted")
	}
	if err := w.add("b", []byte("3")); err == nil {
		t.Fatal("duplicate add accepted")
	}
}

// TestSegmentIterOrder: the compaction iterator yields every entry in
// key order, one block at a time.
func TestSegmentIterOrder(t *testing.T) {
	seg, want := buildSegment(t, t.TempDir(), 1500)
	it := seg.iter()
	var prev string
	n := 0
	for {
		e, ok, err := it.next()
		if err != nil {
			t.Fatalf("iter: %v", err)
		}
		if !ok {
			break
		}
		if n > 0 && e.key <= prev {
			t.Fatalf("iterator out of order: %q after %q", e.key, prev)
		}
		if string(want[e.key]) != string(e.value) {
			t.Fatalf("iter value mismatch at %q", e.key)
		}
		prev = e.key
		n++
	}
	if n != len(want) {
		t.Fatalf("iterated %d entries, want %d", n, len(want))
	}
}

// TestSegmentDetectsBitrot: one flipped byte inside a data block must
// surface as errCorrupt, never as silently wrong bytes.
func TestSegmentDetectsBitrot(t *testing.T) {
	dir := t.TempDir()
	seg, want := buildSegment(t, dir, 500)
	path := filepath.Join(dir, seg.meta.Name)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Flip a byte inside the first data block's payload (magic is 8
	// bytes, frame header 8 more).
	if _, err := f.WriteAt([]byte{0xFF}, 20); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	f.Close()

	sawCorrupt := false
	for k := range want {
		_, ok, _, err := seg.get(k)
		if err != nil {
			sawCorrupt = true
			break
		}
		if ok {
			continue
		}
	}
	if !sawCorrupt {
		t.Fatal("no get surfaced the corrupted block")
	}
	if err := seg.scrub(nil); err == nil {
		t.Fatal("scrub missed the corrupted block")
	}
}

// TestSegmentScrubClean: an intact segment scrubs without error and
// reports its bytes through the throttle.
func TestSegmentScrubClean(t *testing.T) {
	seg, _ := buildSegment(t, t.TempDir(), 500)
	var bytes int
	if err := seg.scrub(func(n int) { bytes += n }); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if bytes == 0 {
		t.Fatal("scrub visited no bytes")
	}
}
