package loop

import (
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// randRect builds a random rectangular nest with up to 4 dimensions.
func randRect(rng *rand.Rand) *Nest {
	dims := 1 + rng.Intn(4)
	lo := make([]int64, dims)
	hi := make([]int64, dims)
	for j := range lo {
		lo[j] = int64(rng.Intn(7)) - 3
		hi[j] = lo[j] + int64(rng.Intn(6))
	}
	return NewRect("randrect", lo, hi)
}

// randTriangular builds a random nest whose inner bounds reference outer
// indices (non-rectangular, so the structure uses the row-offset index).
func randTriangular(rng *rand.Rand) *Nest {
	dims := 2 + rng.Intn(2)
	n := &Nest{Name: "randtri", Dims: dims}
	n.Lower = append(n.Lower, Const(0))
	n.Upper = append(n.Upper, Const(int64(2+rng.Intn(4))))
	for j := 1; j < dims; j++ {
		// I_j runs from 0 to c + I_{j-1} (or c − I_{j-1}), a triangular shape.
		coeffs := make([]int64, dims)
		if rng.Intn(2) == 0 {
			coeffs[j-1] = 1
		} else {
			coeffs[j-1] = -1
		}
		n.Lower = append(n.Lower, Const(0))
		n.Upper = append(n.Upper, Affine{Const: int64(3 + rng.Intn(3)), Coeffs: coeffs})
	}
	return n
}

// randAffine builds a random 2- or 3-deep nest in which every inner
// bound references every outer index with a coefficient in {−1, 0, 1},
// so the middle and inner rows of a 3-D nest move with the outer
// indices and many rows are empty.
func randAffine(rng *rand.Rand) *Nest {
	dims := 2 + rng.Intn(2)
	n := &Nest{Name: "randaffine", Dims: dims}
	n.Lower = append(n.Lower, Const(int64(rng.Intn(5))-2))
	n.Upper = append(n.Upper, Const(int64(2+rng.Intn(6))))
	for j := 1; j < dims; j++ {
		lo := make([]int64, dims)
		hi := make([]int64, dims)
		for k := 0; k < j; k++ {
			lo[k] = int64(rng.Intn(3)) - 1
			hi[k] = int64(rng.Intn(3)) - 1
		}
		n.Lower = append(n.Lower, Affine{Const: int64(rng.Intn(5)) - 2, Coeffs: lo})
		n.Upper = append(n.Upper, Affine{Const: int64(rng.Intn(6)), Coeffs: hi})
	}
	if n.Upper[dims-1].IsConst() {
		n.Upper[dims-1].Coeffs[0] = 1 // keep the nest non-rectangular
	}
	return n
}

// emptyRows is the nest i ∈ [0, 8], j ∈ [i, 5]: rows i = 6..8 are empty.
func emptyRows() *Nest {
	return &Nest{
		Name:  "emptyrows",
		Dims:  2,
		Lower: []Affine{Const(0), {Coeffs: []int64{1, 0}}},
		Upper: []Affine{Const(8), Const(5)},
	}
}

// skewed3D is the nest i ∈ [0, 4], j ∈ [i − 2, 4 − i], k ∈ [j − i, i + j]:
// both inner rows move with the outer indices, and j's row is empty for
// i = 4.
func skewed3D() *Nest {
	return &Nest{
		Name:  "skewed3d",
		Dims:  3,
		Lower: []Affine{Const(0), {Const: -2, Coeffs: []int64{1, 0, 0}}, {Coeffs: []int64{-1, 1, 0}}},
		Upper: []Affine{Const(4), {Const: 4, Coeffs: []int64{-1, 0, 0}}, {Coeffs: []int64{1, 1, 0}}},
	}
}

// indexTestNest returns the trial's nest, cycling through rectangular,
// triangular, random affine and the fixed empty-row and 3-D nests; only
// the first kind is rectangular.
func indexTestNest(rng *rand.Rand, trial int) *Nest {
	switch trial % 4 {
	case 0:
		return randRect(rng)
	case 1:
		return randTriangular(rng)
	case 2:
		return randAffine(rng)
	}
	if trial%8 == 3 {
		return emptyRows()
	}
	return skewed3D()
}

// refIndex is the straightforward string-keyed reference the dense index
// must agree with.
func refIndex(st *Structure) map[string]int {
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
		st, err := NewStructure(n, unitDep(n.Dims))
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
		st, err := NewStructure(n, unitDep(n.Dims))
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
