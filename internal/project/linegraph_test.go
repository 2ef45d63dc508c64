package project

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/vec"
)

// checkLineGraph compares every line graph entry with its definition: the
// target is IndexOf(x^p + d^p), which is the line itself for a dependence
// parallel to Π, and the arc count is the number of points x on the line
// with x + d in V, each of which must project onto the target. It returns
// how many entries have no target line and how many belong to a
// Π-parallel dependence.
func checkLineGraph(t *testing.T, name string, ps *Structure) (missing, parallel int) {
	t.Helper()
	if len(ps.Arcs) != ps.NumPoints()*len(ps.Deps) {
		t.Fatalf("%s: %d line graph entries for %d points and %d dependences", name, len(ps.Arcs), ps.NumPoints(), len(ps.Deps))
	}
	for p, x := range pointList(ps) {
		line := ps.FiberPoints(p)
		for i, d := range ps.Deps {
			to := ps.IndexOf(x.Add(d.Scaled))
			var arcs int64
			for _, y := range line {
				z := y.Add(d.Orig)
				if ps.Orig.VertexIndex(z) < 0 {
					continue
				}
				arcs++
				if at := ps.IndexOf(ps.ProjectionOf(z)); at != to {
					t.Fatalf("%s: the arc %v → %v lands on line %d, x^p + d^p is line %d", name, y, z, at, to)
				}
			}
			if got, want := ps.Line(p)[i], (LineArc{To: int32(to), Arcs: int32(arcs)}); got != want {
				t.Fatalf("%s: line %d dependence %v: entry %+v, want %+v", name, p, d.Orig, got, want)
			}
			if to < 0 {
				missing++
			}
			if d.IsZero() {
				parallel++
			}
		}
	}
	return missing, parallel
}

// TestLineGraphMatchesDefinition checks the line graph entry by entry on
// every built-in kernel at sizes 3 and 6, two generated nests of each
// shape in 2-D and in 3-D, and a nest with a dependence parallel to Π.
// The inputs must include entries with no target line and Π-parallel
// dependences. checkAgainstSorted runs the same check on every projection
// the other oracle tests build.
func TestLineGraphMatchesDefinition(t *testing.T) {
	var missing, parallel int
	check := func(name string, st *loop.Structure, pi vec.Int) {
		t.Helper()
		ps, err := Project(st, pi)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, p := checkLineGraph(t, name, ps)
		missing, parallel = missing+m, parallel+p
	}
	for _, name := range kernels.Names() {
		for _, size := range []int64{3, 6} {
			k, st := kernelStructure(t, name, size)
			check(fmt.Sprintf("%s/%d", name, size), st, k.Pi)
		}
	}
	rng := rand.New(rand.NewSource(24))
	// Draw's shape and depth follow the trial number through these
	// residues; take two cases of each.
	have := make([]int, 2*len(nestgen.Kinds))
	for trial := 0; slices.Min(have) < 2; trial++ {
		if have[trial%len(have)] == 2 {
			continue
		}
		c, ok := nestgen.Draw(rng, trial)
		if !ok {
			continue
		}
		st, err := loop.NewStructure(c.Nest, c.Deps...)
		if err != nil {
			t.Fatal(err)
		}
		check(c.Name, st, c.Pi)
		have[trial%len(have)]++
	}
	st, err := loop.NewStructure(loop.NewRect("diagonal", []int64{0, 0}, []int64{4, 6}), vec.NewInt(1, 1), vec.NewInt(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	check("diagonal", st, vec.NewInt(1, 1))
	if missing == 0 || parallel == 0 {
		t.Fatalf("%d entries without a target line, %d of Π-parallel dependences; want both", missing, parallel)
	}
}
