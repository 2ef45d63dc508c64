// Package cluster turns N independent loopmapd processes into one sharded
// plan cache, dogfooding the paper's own interconnection model at the
// serving layer: shards are addressed as nodes of a ⌈log₂N⌉-dimensional
// hypercube and requests are forwarded toward their owner with e-cube
// (fix-lowest-differing-bit) dimension routing, the same deadlock-free
// oblivious rule §IV uses for block traffic.
//
// Ownership is rendezvous hashing (highest-random-weight) of the canonical
// plan-cache key over the currently-alive shard set: every shard — and
// every client — computes the same owner from the same membership view
// with no coordination, and when a shard dies only its keyspace rehomes
// (survivors keep every key they already own, mirroring the minimal-
// migration property of Plan.RemapDegraded).
//
// Membership is a static peer list with periodic health probing. The
// prober and clock are injectable so failure detection is unit-testable
// with no network or wall-clock dependence.
package cluster

import (
	"hash/fnv"

	"repro/internal/hypercube"
)

// RendezvousScore is the highest-random-weight score of (key, shard).
// It is a pure function of its arguments — every process that computes it
// agrees — built from FNV-1a over the key with a splitmix64 finalizer
// mixing in the shard address.
func RendezvousScore(key string, shard int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64() ^ (uint64(shard)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Owner returns the shard in candidates with the highest rendezvous score
// for key (ties break to the lowest ID, so the choice is total). Passing
// the alive set implements degraded ownership: a dead shard's keys rehome
// to survivors while every other key keeps its owner. Owner panics on an
// empty candidate set — a cluster always contains at least self.
func Owner(key string, candidates []int) int {
	if len(candidates) == 0 {
		panic("cluster: Owner with no candidate shards")
	}
	best := candidates[0]
	bestScore := RendezvousScore(key, best)
	for _, id := range candidates[1:] {
		s := RendezvousScore(key, id)
		if s > bestScore || (s == bestScore && id < best) {
			best, bestScore = id, s
		}
	}
	return best
}

// NextHop returns the next shard on the route from `from` toward `to`,
// following the e-cube rule: correct the lowest differing address bit
// whose resulting intermediate is usable (a real, alive shard). Every hop
// flips a differing bit, so the Hamming distance to `to` strictly
// decreases — routes are loop-free and at most Dim hops even while
// skipping dead intermediates. When no usable intermediate exists the
// route degenerates to a direct hop to `to` (shards are fully connected
// over HTTP; the cube is the preferred geometry, not a physical limit).
func NextHop(c hypercube.Cube, from, to int, usable func(int) bool) int {
	if from == to {
		return to
	}
	diff := from ^ to
	for d := 0; d < c.Dim; d++ {
		bit := 1 << uint(d)
		if diff&bit == 0 {
			continue
		}
		cand := from ^ bit
		if cand == to || (usable != nil && usable(cand)) {
			return cand
		}
	}
	return to
}
