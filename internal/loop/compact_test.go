package loop_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/loop"
	"repro/internal/vec"
)

// TestCompactMatchesEager checks, on generated nests of every shape, that
// a compact structure counts |V| without building it, answers
// VertexIndex without building it, and after its first Vertices call
// holds exactly the eager structure's V, with the same neighbours and
// edges.
func TestCompactMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := indexTestNest(rng, trial)
		st, err := loop.NewStructure(n, unitDep(n.Dims))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !st.Materialized() || st.Len() != len(st.V) {
			t.Fatalf("trial %d: eager structure: materialized %v, Len %d, |V| %d", trial, st.Materialized(), st.Len(), len(st.V))
		}
		c := st.Compact()
		if c.V != nil || c.Materialized() || c.Len() != st.Len() {
			t.Fatalf("trial %d: compact structure: V %d points, materialized %v, Len %d, want Len %d",
				trial, len(c.V), c.Materialized(), c.Len(), st.Len())
		}
		for i, p := range st.V {
			if got := c.VertexIndex(p); got != i {
				t.Fatalf("trial %d: compact VertexIndex(%v) = %d, want %d", trial, p, got, i)
			}
		}
		if c.Materialized() {
			t.Fatalf("trial %d: VertexIndex built V", trial)
		}
		if got := c.Vertices(); !reflect.DeepEqual(got, st.V) {
			t.Fatalf("trial %d: compact Vertices() = %v, want %v", trial, got, st.V)
		}
		if !c.Materialized() || c.V != nil {
			t.Fatalf("trial %d: after Vertices(): materialized %v, V field %d points", trial, c.Materialized(), len(c.V))
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
	}
}

// TestCompactFirstVerticesConcurrent: several goroutines make the first
// Vertices call on one compact structure at once; every one gets the
// same V, built once. Run with -race.
func TestCompactFirstVerticesConcurrent(t *testing.T) {
	for _, n := range []*loop.Nest{
		loop.NewRect("box", []int64{0, 0, 0}, []int64{9, 9, 9}),
		{
			Name:  "triangle",
			Dims:  2,
			Lower: []loop.Affine{loop.Const(0), loop.Const(0)},
			Upper: []loop.Affine{loop.Const(60), {Coeffs: []int64{1, 0}}},
		},
	} {
		st, err := loop.NewStructure(n, unitDep(n.Dims))
		if err != nil {
			t.Fatal(err)
		}
		c := st.Compact()
		got := make([][]vec.Int, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = c.Vertices()
			}(g)
		}
		wg.Wait()
		for g, v := range got {
			if !reflect.DeepEqual(v, st.V) {
				t.Fatalf("%s: goroutine %d got a different V", n.Name, g)
			}
			if &v[0] != &got[0][0] {
				t.Fatalf("%s: goroutine %d got its own copy of V", n.Name, g)
			}
		}
	}
}
