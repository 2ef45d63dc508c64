package loop

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/vec"
)

// enumerateRecursive is the reference enumeration: one recursive loop per
// dimension, a fresh vector per point.
func enumerateRecursive(n *Nest) []vec.Int {
	var out []vec.Int
	idx := make(vec.Int, n.Dims)
	var rec func(j int)
	rec = func(j int) {
		if j == n.Dims {
			out = append(out, idx.Clone())
			return
		}
		for v := n.Lower[j].Eval(idx); v <= n.Upper[j].Eval(idx); v++ {
			idx[j] = v
			rec(j + 1)
		}
		idx[j] = 0
	}
	rec(0)
	return out
}

// TestFlatEnumerationMatchesRecursive checks the iterative walk and the
// flat vertex buffer against the recursive reference on random
// rectangular and triangular nests (the latter with empty inner ranges),
// and that each vertex is a window capped at its own coordinates.
func TestFlatEnumerationMatchesRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := randRect(rng)
		if trial%2 == 1 {
			n = randTriangular(rng)
		}
		want := enumerateRecursive(n)
		st, err := NewStructureCtx(context.Background(), n, unitDep(n.Dims))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.V, want) {
			t.Fatalf("trial %d (%s): V = %v, want %v", trial, n.Name, st.V, want)
		}
		if got := n.Points(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Points = %v, want %v", trial, got, want)
		}
		for i, p := range st.V {
			if cap(p) != n.Dims {
				t.Fatalf("trial %d: cap(V[%d]) = %d, want %d", trial, i, cap(p), n.Dims)
			}
		}
		if len(st.V) > 1 {
			next := st.V[1].Clone()
			_ = append(st.V[0], 99)
			if !st.V[1].Equal(next) {
				t.Fatalf("trial %d: appending to V[0] overwrote V[1]", trial)
			}
		}
	}
}
