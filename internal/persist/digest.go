// Merkle digests over record sets: the anti-entropy currency. A shard
// summarizes the records it holds for one owner as a fixed-shape binary
// Merkle tree over 2^depth key-hash buckets; two shards with identical
// record sets build identical trees, and when they differ, walking the
// two trees from the root localizes the divergence to O(log n) bucket
// subtrees instead of comparing every key.
//
// Leaves must be order-independent (shards enumerate their caches in
// arbitrary order), so a bucket's value is the wrapping sum of its
// entries' hashes; an entry hashes its key together with the CRC-32C of
// its value, so both a missing record and a corrupted one move the leaf.
package persist

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrDigestShape tags digest comparisons over incompatible trees.
var ErrDigestShape = errors.New("persist: digest shape mismatch")

// MaxDigestDepth caps the bucket tree (4096 leaves) — deep enough to
// localize divergence in any cache a shard realistically holds, small
// enough that a serialized leaf row stays a few KB.
const MaxDigestDepth = 12

// DigestEntry is one record's digest input.
type DigestEntry struct {
	Key string
	CRC uint32 // CRC-32C of the record value (Checksum)
}

// Digest is the Merkle tree: levels[0] is the single root, levels[depth]
// the 2^depth leaves; levels[i][j]'s children are levels[i+1][2j] and
// levels[i+1][2j+1].
type Digest struct {
	depth  int
	count  int
	levels [][]uint64
}

// splitmix64 finalizer — the same bijective mixer internal/fault's RNG
// uses, applied here as a hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64a is the FNV-1a hash of s (inline so the hot loop allocates
// nothing).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// entryHash collapses one record into its leaf contribution.
func entryHash(e DigestEntry) uint64 {
	return mix64(fnv64a(e.Key) ^ (uint64(e.CRC) + 1))
}

// BucketOf maps a record key to its leaf bucket at the given depth.
func BucketOf(key string, depth int) int {
	if depth <= 0 {
		return 0
	}
	return int(fnv64a(key) >> (64 - uint(depth)))
}

// DigestDepth picks a tree depth for n records: roughly one record per
// bucket, clamped to [1, MaxDigestDepth]. Both sides of an exchange must
// use the same depth — the requester picks and the responder follows.
func DigestDepth(n int) int {
	d := bits.Len(uint(n))
	if d < 1 {
		d = 1
	}
	if d > MaxDigestDepth {
		d = MaxDigestDepth
	}
	return d
}

// combine folds two child hashes into their parent, asymmetrically so
// sibling order matters.
func combine(left, right uint64) uint64 {
	return mix64(mix64(left) ^ right)
}

// BuildDigest summarizes entries into a depth-deep tree. Entry order is
// irrelevant; duplicate keys contribute twice (callers enumerate caches,
// which cannot hold duplicates).
func BuildDigest(entries []DigestEntry, depth int) *Digest {
	if depth < 1 {
		depth = 1
	}
	if depth > MaxDigestDepth {
		depth = MaxDigestDepth
	}
	leaves := make([]uint64, 1<<uint(depth))
	for _, e := range entries {
		leaves[BucketOf(e.Key, depth)] += entryHash(e)
	}
	return digestFromLeafRow(leaves, len(entries), depth)
}

// DigestFromLeaves rebuilds a tree from a serialized leaf row (the wire
// form): len(leaves) must be a power of two ≤ 2^MaxDigestDepth.
func DigestFromLeaves(leaves []uint64, count int) (*Digest, error) {
	n := len(leaves)
	if n == 0 || n&(n-1) != 0 || n > 1<<MaxDigestDepth {
		return nil, fmt.Errorf("%w: %d leaves is not a power of two ≤ %d", ErrDigestShape, n, 1<<MaxDigestDepth)
	}
	depth := bits.TrailingZeros(uint(n))
	return digestFromLeafRow(append([]uint64(nil), leaves...), count, depth), nil
}

func digestFromLeafRow(leaves []uint64, count, depth int) *Digest {
	d := &Digest{depth: depth, count: count, levels: make([][]uint64, depth+1)}
	d.levels[depth] = leaves
	for lv := depth - 1; lv >= 0; lv-- {
		child := d.levels[lv+1]
		row := make([]uint64, len(child)/2)
		for j := range row {
			row[j] = combine(child[2*j], child[2*j+1])
		}
		d.levels[lv] = row
	}
	return d
}

// Root returns the tree's root hash.
func (d *Digest) Root() uint64 { return d.levels[0][0] }

// Count returns the number of records summarized.
func (d *Digest) Count() int { return d.count }

// Depth returns the tree depth (leaves = 2^Depth).
func (d *Digest) Depth() int { return d.depth }

// Leaves returns the leaf row — the wire form a digest endpoint ships.
func (d *Digest) Leaves() []uint64 {
	return append([]uint64(nil), d.levels[d.depth]...)
}

// DiffDigests walks two same-depth trees from the root and returns the
// leaf buckets where they disagree, plus the number of node comparisons
// the walk made. For a single divergent record the walk touches one
// node per level — comparisons stays O(depth), which is the whole point
// of shipping a tree instead of a key list.
func DiffDigests(a, b *Digest) (buckets []int, comparisons int, err error) {
	if a.depth != b.depth {
		return nil, 0, fmt.Errorf("%w: depth %d vs %d", ErrDigestShape, a.depth, b.depth)
	}
	var walk func(level, idx int)
	walk = func(level, idx int) {
		comparisons++
		if a.levels[level][idx] == b.levels[level][idx] {
			return
		}
		if level == a.depth {
			buckets = append(buckets, idx)
			return
		}
		walk(level+1, 2*idx)
		walk(level+1, 2*idx+1)
	}
	walk(0, 0)
	return buckets, comparisons, nil
}
