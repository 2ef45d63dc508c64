// Package nestgen draws seeded random uniform-dependence loop nests for
// the differential and property tests: rectangular, triangular, skewed
// affine and empty-row nests in two and three dimensions, dependence sets,
// and time functions Π valid for them — negative components and
// non-primitive Π such as (2, 2) included. Only test files import it.
package nestgen

import (
	"fmt"
	"math/rand"

	"repro/internal/loop"
	"repro/internal/vec"
)

// Kind is a nest shape.
type Kind int

const (
	// Rect has constant bounds.
	Rect Kind = iota
	// Triangular runs every inner index from 0 to c ± the index outside it.
	Triangular
	// Affine lets every inner bound reference every outer index with a
	// coefficient in {−1, 0, 1}, so inner rows move and many are empty.
	Affine
	// EmptyRows is one of two fixed nests with empty rows:
	// i ∈ [0, 8], j ∈ [i, 5] in 2-D, and i ∈ [0, 4], j ∈ [i − 2, 4 − i],
	// k ∈ [j − i, i + j] in 3-D.
	EmptyRows
)

// Kinds lists every shape, in the order Draw cycles through them.
var Kinds = []Kind{Rect, Triangular, Affine, EmptyRows}

func (k Kind) String() string {
	return [...]string{"rect", "triangular", "affine", "emptyrows"}[k]
}

// Nest draws a nest of the given kind and depth. Rect accepts any depth
// from 1; the other kinds take 2 or 3.
func Nest(rng *rand.Rand, kind Kind, dims int) *loop.Nest {
	switch kind {
	case Rect:
		return Box(rng, dims, 1, 6)
	case Triangular:
		n := &loop.Nest{Name: "triangular", Dims: dims}
		n.Lower = append(n.Lower, loop.Const(0))
		n.Upper = append(n.Upper, loop.Const(int64(2+rng.Intn(4))))
		for j := 1; j < dims; j++ {
			coeffs := make([]int64, dims)
			coeffs[j-1] = int64(1 - 2*rng.Intn(2))
			n.Lower = append(n.Lower, loop.Const(0))
			n.Upper = append(n.Upper, loop.Affine{Const: int64(3 + rng.Intn(3)), Coeffs: coeffs})
		}
		return n
	case Affine:
		n := &loop.Nest{Name: "affine", Dims: dims}
		n.Lower = append(n.Lower, loop.Const(int64(rng.Intn(5))-2))
		n.Upper = append(n.Upper, loop.Const(int64(2+rng.Intn(6))))
		for j := 1; j < dims; j++ {
			lo := make([]int64, dims)
			hi := make([]int64, dims)
			for k := 0; k < j; k++ {
				lo[k] = int64(rng.Intn(3)) - 1
				hi[k] = int64(rng.Intn(3)) - 1
			}
			n.Lower = append(n.Lower, loop.Affine{Const: int64(rng.Intn(5)) - 2, Coeffs: lo})
			n.Upper = append(n.Upper, loop.Affine{Const: int64(rng.Intn(6)), Coeffs: hi})
		}
		if n.Upper[dims-1].IsConst() {
			n.Upper[dims-1].Coeffs[0] = 1 // keep the nest non-rectangular
		}
		return n
	case EmptyRows:
		if dims == 2 {
			return &loop.Nest{
				Name:  "emptyrows",
				Dims:  2,
				Lower: []loop.Affine{loop.Const(0), {Coeffs: []int64{1, 0}}},
				Upper: []loop.Affine{loop.Const(8), loop.Const(5)},
			}
		}
		return &loop.Nest{
			Name:  "skewed3d",
			Dims:  3,
			Lower: []loop.Affine{loop.Const(0), {Const: -2, Coeffs: []int64{1, 0, 0}}, {Coeffs: []int64{-1, 1, 0}}},
			Upper: []loop.Affine{loop.Const(4), {Const: 4, Coeffs: []int64{-1, 0, 0}}, {Coeffs: []int64{1, 1, 0}}},
		}
	}
	panic(fmt.Sprintf("nestgen: unknown kind %d", kind))
}

// Box draws a rectangular nest whose dimensions each start in [−3, 3]
// and run minLen to maxLen iterations.
func Box(rng *rand.Rand, dims int, minLen, maxLen int64) *loop.Nest {
	lo := make([]int64, dims)
	hi := make([]int64, dims)
	for j := range lo {
		lo[j] = int64(rng.Intn(7)) - 3
		hi[j] = lo[j] + minLen - 1 + rng.Int63n(maxLen-minLen+1)
	}
	return loop.NewRect("rect", lo, hi)
}

// Deps draws 1 to 3 distinct lexicographically positive dependence
// vectors with entries in [−maxAbs, maxAbs].
func Deps(rng *rand.Rand, dims int, maxAbs int64) []vec.Int {
	want := 1 + rng.Intn(3)
	var out []vec.Int
	for len(out) < want {
		d := make(vec.Int, dims)
		for k := range d {
			d[k] = rng.Int63n(2*maxAbs+1) - maxAbs
		}
		if d.IsZero() {
			continue
		}
		if !d.LexPositive() {
			d = d.Scale(-1)
		}
		dup := false
		for _, e := range out {
			dup = dup || e.Equal(d)
		}
		if !dup {
			out = append(out, d)
		}
	}
	return out
}

// Pi draws a time function with entries in [−3, 3] that is valid for deps
// (Π·d > 0 for every d), doubled one time in four so Π/gcd(Π) differs
// from Π; nil when fifty draws find none.
func Pi(rng *rand.Rand, deps []vec.Int) vec.Int {
	dims := len(deps[0])
	for attempt := 0; attempt < 50; attempt++ {
		pi := make(vec.Int, dims)
		for k := range pi {
			pi[k] = int64(rng.Intn(7)) - 3
		}
		valid := !pi.IsZero()
		for _, d := range deps {
			valid = valid && pi.Dot(d) > 0
		}
		if !valid {
			continue
		}
		if rng.Intn(4) == 0 {
			pi = pi.Scale(2)
		}
		return pi
	}
	return nil
}

// Case is one generated planning problem: a nest, its dependences and a
// valid time function.
type Case struct {
	Name string
	Nest *loop.Nest
	Deps []vec.Int
	Pi   vec.Int
}

// Draw returns the trial's case. Shapes cycle through Kinds, depth
// alternates between 2 and 3 every four trials, dependences have entries
// in [−1, 1], and Π comes from Pi. ok is false when no valid Π was found
// or the nest is empty.
func Draw(rng *rand.Rand, trial int) (c Case, ok bool) {
	kind := Kinds[trial%len(Kinds)]
	dims := 2 + (trial/len(Kinds))%2
	n := Nest(rng, kind, dims)
	deps := Deps(rng, dims, 1)
	pi := Pi(rng, deps)
	if pi == nil || n.Size() == 0 {
		return Case{}, false
	}
	n.Name = fmt.Sprintf("%s-%d", kind, trial)
	return Case{Name: fmt.Sprintf("%s D=%v Π=%v", n.Name, deps, pi), Nest: n, Deps: deps, Pi: pi}, true
}
