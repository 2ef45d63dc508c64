package loop_test

import (
	"math/rand"
	"testing"

	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/vec"
)

// indexTestNest returns the trial's nest, cycling through the generator's
// shapes: rectangular (1 to 4 deep), triangular, affine and the fixed
// empty-row nests (2 and 3 deep); only the first is rectangular.
func indexTestNest(rng *rand.Rand, trial int) *loop.Nest {
	kind := nestgen.Kinds[trial%len(nestgen.Kinds)]
	if kind == nestgen.Rect {
		return nestgen.Nest(rng, kind, 1+rng.Intn(4))
	}
	if kind == nestgen.EmptyRows {
		return nestgen.Nest(rng, kind, 2+trial/4%2)
	}
	return nestgen.Nest(rng, kind, 2+rng.Intn(2))
}

// refIndex is the straightforward string-keyed reference the dense index
// must agree with.
func refIndex(st *loop.Structure) map[string]int {
	ref := make(map[string]int, len(st.V))
	for i, p := range st.V {
		ref[p.Key()] = i
	}
	return ref
}

// TestVertexIndexAgreesWithMap checks, on random rectangular and
// non-rectangular nests (some with empty rows), that VertexIndex matches a
// reference map for every vertex and for random probe points around the
// index set (membership and position both).
func TestVertexIndexAgreesWithMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := indexTestNest(rng, trial)
		st, err := loop.NewStructure(n, unitDep(n.Dims))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got, want := st.Rectangular(), trial%4 == 0; got != want {
			t.Fatalf("trial %d: Rectangular() = %v, want %v", trial, got, want)
		}
		ref := refIndex(st)
		for i, p := range st.V {
			if got := st.VertexIndex(p); got != i {
				t.Fatalf("trial %d: VertexIndex(%v) = %d, want %d", trial, p, got, i)
			}
		}
		// Random probes, including points outside the index set.
		for probe := 0; probe < 100; probe++ {
			q := make(vec.Int, n.Dims)
			for j := range q {
				q[j] = int64(rng.Intn(17)) - 8
			}
			want, ok := ref[q.Key()]
			if !ok {
				want = -1
			}
			if got := st.VertexIndex(q); got != want {
				t.Fatalf("trial %d: VertexIndex(%v) = %d, want %d", trial, q, got, want)
			}
		}
	}
}

// TestNeighborIndexAgreesWithVertexIndex checks the allocation-free
// neighbour lookup against the definition V[vi]+d, resolved both by
// VertexIndex and by the reference map, on random nests and random step
// vectors.
func TestNeighborIndexAgreesWithVertexIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := indexTestNest(rng, trial)
		st, err := loop.NewStructure(n, unitDep(n.Dims))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ref := refIndex(st)
		for step := 0; step < 20; step++ {
			d := make(vec.Int, n.Dims)
			for j := range d {
				d[j] = int64(rng.Intn(7)) - 3
			}
			for vi := range st.V {
				q := st.V[vi].Add(d)
				want, ok := ref[q.Key()]
				if !ok {
					want = -1
				}
				if got := st.VertexIndex(q); got != want {
					t.Fatalf("trial %d: VertexIndex(%v) = %d, want %d", trial, q, got, want)
				}
				if got := st.NeighborIndex(vi, d); got != want {
					t.Fatalf("trial %d: NeighborIndex(%d, %v) = %d, want %d", trial, vi, d, got, want)
				}
			}
		}
	}
}

// unitDep returns the lexicographically positive unit dependence (1, 0, …)
// so random nests form valid structures.
func unitDep(dims int) vec.Int {
	d := make(vec.Int, dims)
	d[0] = 1
	return d
}
