package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/project"
	"repro/internal/vec"
)

// edgeStatsWalk is the reference EdgeStats: every (vertex, dependence)
// pair of the structure, classified through BlockOf.
func edgeStatsWalk(p *Partitioning) DepEdgeStats {
	var s DepEdgeStats
	p.PS.Orig.ForEachEdgeIdx(func(ui, vi, di int) {
		s.Total++
		if p.BlockOf[ui] != p.BlockOf[vi] {
			s.InterBlock++
		}
	})
	return s
}

// checkEdgeStats partitions ps at merge factors 1 to maxMerge, with and
// without auxiliary vectors, and compares EdgeStats with the walk and
// its InterBlock with the TIG's traffic.
func checkEdgeStats(t *testing.T, name string, ps *project.Structure, maxMerge int64) {
	t.Helper()
	for merge := int64(1); merge <= maxMerge; merge++ {
		for _, noAux := range []bool{false, true} {
			p, err := Partition(ps, Options{MergeFactor: merge, NoAux: noAux})
			if err != nil {
				t.Fatalf("%s merge=%d noAux=%v: %v", name, merge, noAux, err)
			}
			got, want := p.EdgeStats(), edgeStatsWalk(p)
			if got != want {
				t.Fatalf("%s merge=%d noAux=%v: EdgeStats = %+v, walk %+v", name, merge, noAux, got, want)
			}
			if traffic := BuildTIG(p).TotalTraffic(); int64(got.InterBlock) != traffic {
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

// randAffineNest builds a random 2- or 3-deep nest whose inner bounds
// reference outer indices with positive and negative coefficients, so
// rows can be empty, and a random set of lexicographically positive
// dependences.
func randAffineNest(rng *rand.Rand) (*loop.Nest, []vec.Int) {
	dims := 2 + rng.Intn(2)
	n := &loop.Nest{Name: "randaffine", Dims: dims}
	n.Lower = append(n.Lower, loop.Const(int64(rng.Intn(3))))
	n.Upper = append(n.Upper, loop.Const(int64(3+rng.Intn(5))))
	for j := 1; j < dims; j++ {
		lo := make([]int64, dims)
		hi := make([]int64, dims)
		for k := 0; k < j; k++ {
			lo[k] = int64(rng.Intn(3)) - 1
			hi[k] = int64(rng.Intn(3)) - 1
		}
		n.Lower = append(n.Lower, loop.Affine{Const: int64(rng.Intn(3)) - 1, Coeffs: lo})
		n.Upper = append(n.Upper, loop.Affine{Const: int64(2 + rng.Intn(5)), Coeffs: hi})
	}
	var deps []vec.Int
	for len(deps) < 1+rng.Intn(3) {
		d := make(vec.Int, dims)
		for k := range d {
			d[k] = int64(rng.Intn(3)) - 1
		}
		if d.LexPositive() {
			deps = append(deps, d)
		}
	}
	return n, deps
}

// TestEdgeStatsMatchesWalkOnRandomNests compares EdgeStats with the walk
// on random non-rectangular nests scheduled by the optimal Π.
func TestEdgeStatsMatchesWalkOnRandomNests(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	checked := 0
	for trial := 0; checked < 150; trial++ {
		n, deps := randAffineNest(rng)
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
		checkEdgeStats(t, fmt.Sprintf("trial %d %v D=%v Π=%v", trial, n.Upper, deps, sch.Pi), ps, 3)
		checked++
	}
}
