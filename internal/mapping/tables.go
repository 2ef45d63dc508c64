package mapping

import "repro/internal/pool"

// Tables is recycled memory for one transient mapping: its Result and
// every table the result keeps (NodeOf, Clusters and the cluster lists
// they window, BitsPerAxis), carved from an int arena and a cluster
// table. MapPartitioningInto builds into it; the result is an ordinary
// read-only value until Reset hands the memory to the next build, and
// nothing may read it after that. A nil *Tables means a kept result,
// allocated at its exact size, as MapPartitioning builds it.
type Tables struct {
	res      Result
	arena    []int
	clusters [][]int
}

// tablesMaxEntries bounds the arena Reset keeps: a huge mapping's is
// dropped rather than pinned for later builds.
const tablesMaxEntries = 1 << 16

// result returns the struct a mapping is built in.
func (t *Tables) result() *Result {
	if t == nil {
		return new(Result)
	}
	return &t.res
}

// ints returns n zeroed ints: a new table when t is nil, else the next n
// entries of the arena.
func (t *Tables) ints(n int) []int {
	if t == nil {
		return make([]int, n)
	}
	return pool.Carve(&t.arena, n)
}

// clusterTable returns n nil cluster lists: a new table when t is nil,
// else the recycled one.
func (t *Tables) clusterTable(n int) [][]int {
	if t == nil {
		return make([][]int, n)
	}
	if cap(t.clusters) < n {
		t.clusters = make([][]int, n)
	}
	c := t.clusters[:n:n]
	clear(c)
	return c
}

// Reset hands t's memory to the next build: the result built into it is
// gone. Under pool.PoisonReleased its tables are overwritten first.
func (t *Tables) Reset() {
	if pool.PoisonReleased.Load() {
		pool.Poison(t.arena)
	}
	t.res = Result{}
	clear(t.clusters)
	t.arena = t.arena[:0]
	if cap(t.arena) > tablesMaxEntries || cap(t.clusters) > tablesMaxEntries {
		t.arena, t.clusters = nil, nil
	}
}
