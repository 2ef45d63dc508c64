package loop_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/vec"
)

// enumerateRecursive is the reference enumeration: one recursive loop per
// dimension, a fresh vector per point.
func enumerateRecursive(n *loop.Nest) []vec.Int {
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

// TestFlatEnumerationMatchesRecursive checks the row walk and the flat
// vertex buffer against the recursive reference on generated nests of
// every shape (some with empty inner ranges), and that each vertex is a
// window capped at its own coordinates.
func TestFlatEnumerationMatchesRecursive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := nestgen.Nest(rng, nestgen.Rect, 1+rng.Intn(4))
		if trial%2 == 1 {
			n = nestgen.Nest(rng, nestgen.Kinds[1+trial/2%3], 2+rng.Intn(2))
		}
		want := enumerateRecursive(n)
		st, err := loop.NewStructureCtx(context.Background(), n, unitDep(n.Dims))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.V, want) {
			t.Fatalf("trial %d (%s): V = %v, want %v", trial, n.Name, st.V, want)
		}
		var got []vec.Int
		st.Points(func(_ int, p vec.Int) bool { got = append(got, p.Clone()); return true })
		if !reflect.DeepEqual(got, want) {
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

// TestRowsAndLineEndMatchEnumeration checks ForEachRow, Row and LineEnd
// against the enumerated index set on generated nests of every shape: the
// rows are V's maximal runs along the innermost index, Row answers every
// prefix of V and no other, and the line from a vertex along a random
// direction stays in V exactly up to LineEnd.
func TestRowsAndLineEndMatchEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := indexTestNest(rng, trial)
		st, err := loop.NewStructure(n, unitDep(n.Dims))
		if err != nil {
			t.Fatal(err)
		}
		last := n.Dims - 1
		vi := 0
		n.ForEachRow(func(row vec.Int, hi int64) bool {
			lo, rhi, ok := n.Row(row)
			if !ok || lo != row[last] || rhi != hi {
				t.Fatalf("trial %d: Row(%v) = [%d, %d] %v, ForEachRow gave [%d, %d]", trial, row, lo, rhi, ok, row[last], hi)
			}
			for x := row[last]; x <= hi; x++ {
				p := append(row[:last:last], x)
				if vi >= len(st.V) || !st.V[vi].Equal(p) {
					t.Fatalf("trial %d: row point %v, V[%d] = %v", trial, p, vi, st.V[vi])
				}
				vi++
			}
			return true
		})
		if vi != len(st.V) {
			t.Fatalf("trial %d: rows cover %d points, V has %d", trial, vi, len(st.V))
		}
		ref := refIndex(st)
		for probe := 0; probe < 30; probe++ {
			x := make(vec.Int, n.Dims)
			for j := range x {
				x[j] = int64(rng.Intn(13)) - 6
			}
			// A prefix has a row exactly when some vertex extends it.
			_, _, ok := n.Row(x)
			has := false
			for _, p := range st.V {
				has = has || p[:last].Equal(x[:last])
			}
			if ok != has {
				t.Fatalf("trial %d: Row(%v) ok = %v, V has the prefix: %v", trial, x, ok, has)
			}
			if len(st.V) == 0 {
				continue
			}
			u := make(vec.Int, n.Dims)
			for j := range u {
				u[j] = int64(rng.Intn(5)) - 2
			}
			if u.IsZero() {
				u[last] = 1
			}
			x = st.V[rng.Intn(len(st.V))]
			end := n.LineEnd(u)(x)
			for k := int64(0); k <= 40; k++ {
				_, in := ref[x.AddScaled(k, u).Key()]
				if want := k <= end; in != want {
					t.Fatalf("trial %d: LineEnd(%v)(%v) = %d, but x+%d·u in V = %v", trial, u, x, end, k, in)
				}
			}
		}
	}
}
