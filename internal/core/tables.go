package core

import "repro/internal/pool"

// Tables is recycled memory for one transient partitioning and its TIG:
// both structs, and every table they keep carved from one int32 and one
// int64 arena. Stage.PartitionInto and BuildTIGInto build into it; the
// results are ordinary read-only values until Reset hands the memory to
// the next build, and nothing may read them after that. A nil *Tables
// means kept results: structs and tables allocated at their exact size,
// as Stage.PartitionCtx and BuildTIG build them.
type Tables struct {
	part Partitioning
	tig  TIG
	i32  []int32
	i64  []int64
}

// tablesMaxBytes bounds the arenas Reset keeps: a huge structure's are
// dropped rather than pinned for later builds.
const tablesMaxBytes = 1 << 20

// partitioning returns the struct a partitioning is built in.
func (t *Tables) partitioning() *Partitioning {
	if t == nil {
		return new(Partitioning)
	}
	return &t.part
}

// graph returns the struct a TIG is built in.
func (t *Tables) graph() *TIG {
	if t == nil {
		return new(TIG)
	}
	return &t.tig
}

// int32s returns n zeroed int32s: a new table when t is nil, else the
// next n entries of the arena.
func (t *Tables) int32s(n int) []int32 {
	if t == nil {
		return make([]int32, n)
	}
	return pool.Carve(&t.i32, n)
}

// int64s is int32s for the int64 arena.
func (t *Tables) int64s(n int) []int64 {
	if t == nil {
		return make([]int64, n)
	}
	return pool.Carve(&t.i64, n)
}

// Reset hands t's memory to the next build: the partitioning and TIG
// built into it are gone. Under pool.PoisonReleased their tables are
// overwritten first.
func (t *Tables) Reset() {
	if pool.PoisonReleased.Load() {
		pool.Poison(t.i32)
		pool.Poison(t.i64)
	}
	t.part, t.tig = Partitioning{}, TIG{}
	t.i32, t.i64 = t.i32[:0], t.i64[:0]
	if cap(t.i32)*4 > tablesMaxBytes {
		t.i32 = nil
	}
	if cap(t.i64)*8 > tablesMaxBytes {
		t.i64 = nil
	}
}
