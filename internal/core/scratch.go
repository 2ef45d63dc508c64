package core

import "repro/internal/pool"

// scratch is the working memory of one Algorithm 1 run, one invariant
// check or one TIG build: the grower's group records and probe vectors
// (a TIG build's loads), a table of int32 counters or stamps, and a TIG
// build's edge targets and weights. Runs take it from scratchFree and
// give it back when they return, so a planner reuses it across plans
// instead of allocating it per plan. Results never reference it: every
// table a Partitioning or TIG keeps is allocated at its exact size, or
// carved from Tables, and filled from the scratch.
type scratch struct {
	rec    []int64
	vecs   []int64
	i32    []int32
	to     []int32
	weight []int64
}

// scratchFree holds the scratch between runs, one per run that was in
// progress at once, up to scratchKept.
var scratchFree = pool.NewFree[scratch](scratchKept)

const (
	scratchKept = 8
	// scratchMaxBytes bounds the tables a run gives back: a huge
	// structure's are dropped rather than pinned for later plans.
	scratchMaxBytes = 1 << 20
)

func getScratch() *scratch { return scratchFree.Get() }

func putScratch(s *scratch) {
	if cap(s.rec)*8 > scratchMaxBytes || cap(s.i32)*4 > scratchMaxBytes || cap(s.weight)*8 > scratchMaxBytes {
		return
	}
	scratchFree.Put(s)
}

// records returns the record buffer, empty, with room for at least n
// entries.
func (s *scratch) records(n int) []int64 {
	if cap(s.rec) < n {
		s.rec = make([]int64, 0, n)
	}
	return s.rec[:0]
}

// vec returns n zeroed entries of the probe-vector buffer.
func (s *scratch) vec(n int) []int64 {
	if cap(s.vecs) < n {
		s.vecs = make([]int64, n)
	}
	v := s.vecs[:n]
	clear(v)
	return v
}

// int32s returns n zeroed entries of the counter table.
func (s *scratch) int32s(n int) []int32 {
	if cap(s.i32) < n {
		s.i32 = make([]int32, n)
	}
	t := s.i32[:n]
	clear(t)
	return t
}
