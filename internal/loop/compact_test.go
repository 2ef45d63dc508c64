package loop_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/vec"
)

// TestCompactMatchesEager checks, on generated nests of every shape, that
// a compact structure counts |V|, answers VertexIndex and NeighborIndex,
// and counts edges exactly as the eager structure does, and never builds
// V.
func TestCompactMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := indexTestNest(rng, trial)
		st, err := loop.NewStructure(n, unitDep(n.Dims))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if st.Len() != len(st.V) {
			t.Fatalf("trial %d: eager structure: Len %d, |V| %d", trial, st.Len(), len(st.V))
		}
		c := st.Compact()
		if c.V != nil || c.Len() != st.Len() {
			t.Fatalf("trial %d: compact structure: V %d points, Len %d, want Len %d", trial, len(c.V), c.Len(), st.Len())
		}
		for i, p := range st.V {
			if got := c.VertexIndex(p); got != i {
				t.Fatalf("trial %d: compact VertexIndex(%v) = %d, want %d", trial, p, got, i)
			}
		}
		for vi := range st.V {
			for _, d := range []vec.Int{st.D[0], st.D[0].Scale(-1)} {
				if got, want := c.NeighborIndex(vi, d), st.NeighborIndex(vi, d); got != want {
					t.Fatalf("trial %d: NeighborIndex(%d, %v) = %d, want %d", trial, vi, d, got, want)
				}
			}
		}
		if got, want := c.EdgeCount(), st.EdgeCount(); got != want {
			t.Fatalf("trial %d: EdgeCount %d, want %d", trial, got, want)
		}
		if c.V != nil {
			t.Fatalf("trial %d: the compact structure built V", trial)
		}
	}
}

// TestPointsMatchEager checks the vertex set's read primitives on a
// compact copy of every built-in kernel and of generated nests of every
// shape (rectangular and row-indexed): Points visits the eager V in
// order with vi running over 0…Len−1, Point(vi) inverts VertexIndex,
// NeighborIndex and NeighborOf equal VertexIndex(V[vi]+d) for every d in
// D and its negation, and the copy's V stays nil throughout.
func TestPointsMatchEager(t *testing.T) {
	type tcase struct {
		name string
		st   *loop.Structure
	}
	var cases []tcase
	for _, name := range kernels.Names() {
		k, err := kernels.Lookup(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		st, err := k.Structure()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, tcase{name, st})
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		n := indexTestNest(rng, trial)
		// Entries up to 3 leave a 1-deep nest its three distinct vectors.
		st, err := loop.NewStructure(n, nestgen.Deps(rng, n.Dims, 3)...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cases = append(cases, tcase{fmt.Sprintf("trial %d (%s)", trial, nestgen.Kinds[trial%len(nestgen.Kinds)]), st})
	}
	rect, rows := 0, 0
	for _, tc := range cases {
		st := tc.st
		if st.Rectangular() {
			rect++
		} else {
			rows++
		}
		c := st.Compact()
		next := 0
		c.Points(func(vi int, p vec.Int) bool {
			if vi != next || vi >= len(st.V) || !p.Equal(st.V[vi]) {
				t.Fatalf("%s: Points visited %v as %d, want %v as %d", tc.name, p, vi, st.V[min(next, len(st.V)-1)], next)
			}
			next++
			return true
		})
		if next != c.Len() || next != len(st.V) {
			t.Fatalf("%s: Points visited %d vertices, Len %d, |V| %d", tc.name, next, c.Len(), len(st.V))
		}
		var buf, q vec.Int
		for vi, p := range st.V {
			buf = c.Point(vi, buf)
			if !buf.Equal(p) || c.VertexIndex(buf) != vi {
				t.Fatalf("%s: Point(%d) = %v, want %v", tc.name, vi, buf, p)
			}
			for _, d := range st.D {
				for _, e := range []vec.Int{d, d.Scale(-1)} {
					q = append(q[:0], p...)
					for j := range q {
						q[j] += e[j]
					}
					want := c.VertexIndex(q)
					if got := c.NeighborIndex(vi, e); got != want {
						t.Fatalf("%s: NeighborIndex(%d, %v) = %d, want %d", tc.name, vi, e, got, want)
					}
					if got := c.NeighborOf(vi, p, e); got != want {
						t.Fatalf("%s: NeighborOf(%d, %v, %v) = %d, want %d", tc.name, vi, p, e, got, want)
					}
				}
			}
		}
		if c.V != nil {
			t.Fatalf("%s: the compact copy built V", tc.name)
		}
	}
	if rect == 0 || rows == 0 {
		t.Fatalf("%d rectangular and %d row-indexed structures; want both", rect, rows)
	}
}
