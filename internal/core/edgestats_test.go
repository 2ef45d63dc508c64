package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/project"
)

// edgeStatsWalk is the reference EdgeStats: every (vertex, dependence)
// pair of the structure, classified through the reference blocks.
func edgeStatsWalk(p *Partitioning) DepEdgeStats {
	var s DepEdgeStats
	blockOf := computeBlocks(p)
	p.PS.Orig.ForEachEdgeIdx(func(ui, vi, di int) {
		s.Total++
		if blockOf[ui] != blockOf[vi] {
			s.InterBlock++
		}
	})
	return s
}

// checkEdgeStats partitions ps at merge factors 1 to maxMerge, with and
// without auxiliary vectors, diffs the groups and the TIG's EdgeStats
// against the visited-set region growing and the per-pair count
// (checkGrowAgainstVecSet), and compares EdgeStats with the walk and
// InterBlock with the TIG's traffic.
func checkEdgeStats(t *testing.T, name string, ps *project.Structure, maxMerge int64) {
	t.Helper()
	for merge := int64(1); merge <= maxMerge; merge++ {
		for _, noAux := range []bool{false, true} {
			p, err := Partition(ps, Options{MergeFactor: merge, NoAux: noAux})
			if err != nil {
				t.Fatalf("%s merge=%d noAux=%v: %v", name, merge, noAux, err)
			}
			checkGrowAgainstVecSet(t, fmt.Sprintf("%s merge=%d noAux=%v", name, merge, noAux), p, nil)
			tig := BuildTIG(p)
			got, want := tig.EdgeStats(), edgeStatsWalk(p)
			if got != want {
				t.Fatalf("%s merge=%d noAux=%v: EdgeStats = %+v, walk %+v", name, merge, noAux, got, want)
			}
			if traffic := tig.TotalTraffic(); int64(got.InterBlock) != traffic {
				t.Fatalf("%s merge=%d noAux=%v: InterBlock = %d, TIG traffic %d", name, merge, noAux, got.InterBlock, traffic)
			}
		}
	}
}

// TestEdgeStatsMatchesWalkOnMissGrid runs every built-in kernel under its
// own Π over the sizes a plan-cache miss plans (2-D kernels 8 to 128 in
// steps of 3, 3-D kernels 4 to 28 in steps of 2), merge factors 1 to 10
// and both aux settings. -short takes every fourth size.
func TestEdgeStatsMatchesWalkOnMissGrid(t *testing.T) {
	stride := int64(1)
	if testing.Short() {
		stride = 4
	}
	for _, name := range kernels.Names() {
		k, err := kernels.Lookup(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		from, to, step := int64(8), int64(128), int64(3)
		if k.Nest.Dims == 3 {
			from, to, step = 4, 28, 2
		}
		for size := from; size <= to; size += step * stride {
			checkEdgeStats(t, fmt.Sprintf("%s/%d", name, size), projectKernel(t, name, size, false), 10)
		}
	}
}

// TestEdgeStatsMatchesWalkOnRandomNests compares EdgeStats with the walk
// on generated nests of every shape scheduled by the optimal Π.
func TestEdgeStatsMatchesWalkOnRandomNests(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	checked := 0
	for trial := 0; checked < 150; trial++ {
		kind := nestgen.Kinds[trial%len(nestgen.Kinds)]
		n := nestgen.Nest(rng, kind, 2+trial/len(nestgen.Kinds)%2)
		deps := nestgen.Deps(rng, n.Dims, 1)
		st, err := loop.NewStructure(n, deps...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(st.V) == 0 {
			continue
		}
		sch, err := hyperplane.FindOptimal(st, 2)
		if err != nil {
			continue // no valid Π within the search bound
		}
		ps, err := project.Project(st, sch.Pi)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkEdgeStats(t, fmt.Sprintf("trial %d %s %v D=%v Π=%v", trial, kind, n.Upper, deps, sch.Pi), ps, 3)
		checked++
	}
}
