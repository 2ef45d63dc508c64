package persist

import (
	"errors"
	"fmt"
	"testing"
)

func digestEntries(n int) []DigestEntry {
	out := make([]DigestEntry, 0, n)
	for i := 0; i < n; i++ {
		v := []byte(fmt.Sprintf("value-%d", i))
		out = append(out, DigestEntry{Key: fmt.Sprintf("kernel=k%d|size=%d", i, i), CRC: Checksum(v)})
	}
	return out
}

func TestDigestEmptyStore(t *testing.T) {
	a := BuildDigest(nil, 4)
	b := BuildDigest(nil, 4)
	if a.Root() != b.Root() {
		t.Fatal("two empty digests disagree")
	}
	if a.Count() != 0 {
		t.Fatalf("empty digest count = %d", a.Count())
	}
	buckets, _, err := DiffDigests(a, b)
	if err != nil || len(buckets) != 0 {
		t.Fatalf("empty digests diff: buckets=%v err=%v", buckets, err)
	}
	// Empty vs one record must differ.
	c := BuildDigest(digestEntries(1), 4)
	if a.Root() == c.Root() {
		t.Fatal("empty digest equals a one-record digest")
	}
}

func TestDigestSingleRecord(t *testing.T) {
	es := digestEntries(1)
	a := BuildDigest(es, 6)
	b := BuildDigest(es, 6)
	if a.Root() != b.Root() {
		t.Fatal("identical single-record digests disagree")
	}
	buckets, _, err := DiffDigests(a, BuildDigest(nil, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 1 || buckets[0] != BucketOf(es[0].Key, 6) {
		t.Fatalf("single missing record localized to %v, want bucket %d", buckets, BucketOf(es[0].Key, 6))
	}
}

func TestDigestOrderIndependent(t *testing.T) {
	es := digestEntries(64)
	rev := make([]DigestEntry, len(es))
	for i, e := range es {
		rev[len(es)-1-i] = e
	}
	if BuildDigest(es, 8).Root() != BuildDigest(rev, 8).Root() {
		t.Fatal("digest depends on entry order")
	}
}

func TestDigestTamperedCRC(t *testing.T) {
	es := digestEntries(32)
	depth := DigestDepth(len(es))
	clean := BuildDigest(es, depth)

	tampered := append([]DigestEntry(nil), es...)
	tampered[7].CRC ^= 0x1 // one corrupted record value
	dirty := BuildDigest(tampered, depth)

	if clean.Root() == dirty.Root() {
		t.Fatal("tampered CRC did not change the root")
	}
	buckets, _, err := DiffDigests(clean, dirty)
	if err != nil {
		t.Fatal(err)
	}
	want := BucketOf(es[7].Key, depth)
	found := false
	for _, b := range buckets {
		if b == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("tampered record's bucket %d not in divergent set %v", want, buckets)
	}
	if len(buckets) != 1 {
		t.Fatalf("one tampered record diverged %d buckets: %v", len(buckets), buckets)
	}
}

// TestDigestLocalizationLogN pins the Merkle property: diffing trees
// that differ in one record visits O(depth) nodes, not O(buckets).
func TestDigestLocalizationLogN(t *testing.T) {
	es := digestEntries(512)
	depth := MaxDigestDepth // 4096 buckets
	clean := BuildDigest(es, depth)

	tampered := append([]DigestEntry(nil), es...)
	tampered[100].CRC ^= 0xdeadbeef
	dirty := BuildDigest(tampered, depth)

	buckets, comparisons, err := DiffDigests(clean, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 1 {
		t.Fatalf("want 1 divergent bucket, got %v", buckets)
	}
	// A single divergent leaf forces one root comparison plus two child
	// comparisons per level on the divergent path: 2*depth + 1.
	if max := 2*depth + 1; comparisons > max {
		t.Fatalf("localization made %d comparisons; O(log n) bound is %d", comparisons, max)
	}
	if total := 2<<uint(depth) - 1; comparisons >= total/2 {
		t.Fatalf("localization made %d comparisons — closer to a full scan (%d nodes) than a root walk", comparisons, total)
	}
}

func TestDigestLeavesRoundTrip(t *testing.T) {
	es := digestEntries(100)
	d := BuildDigest(es, 7)
	back, err := DigestFromLeaves(d.Leaves(), d.Count())
	if err != nil {
		t.Fatal(err)
	}
	if back.Root() != d.Root() || back.Depth() != d.Depth() {
		t.Fatal("digest does not survive leaf-row round-trip")
	}
}

func TestDiffDigestsShapeMismatch(t *testing.T) {
	a := BuildDigest(nil, 3)
	b := BuildDigest(nil, 4)
	if _, _, err := DiffDigests(a, b); !errors.Is(err, ErrDigestShape) {
		t.Fatalf("want ErrDigestShape, got %v", err)
	}
	if _, err := DigestFromLeaves([]uint64{1, 2, 3}, 3); !errors.Is(err, ErrDigestShape) {
		t.Fatalf("want ErrDigestShape for non-power-of-two leaves, got %v", err)
	}
}
