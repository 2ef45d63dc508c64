package loop_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/nestgen"
	"repro/internal/vec"
)

// TestCompactMatchesEager checks, on generated nests of every shape, that
// a counted structure (NewCountedStructureCtx) counts |V|, answers
// VertexIndex and NeighborIndex, and counts edges exactly as the eager
// structure does, and never builds V.
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
		c, err := loop.NewCountedStructureCtx(context.Background(), n, unitDep(n.Dims))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if c.V != nil || c.Len() != st.Len() {
			t.Fatalf("trial %d: counted structure: V %d points, Len %d, want Len %d", trial, len(c.V), c.Len(), st.Len())
		}
		for i, p := range st.V {
			if got := c.VertexIndex(p); got != i {
				t.Fatalf("trial %d: counted VertexIndex(%v) = %d, want %d", trial, p, got, i)
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
			t.Fatalf("trial %d: the counted structure built V", trial)
		}
	}
}

// TestPointsMatchEager checks the vertex set's read primitives on the
// counted structure (NewCountedStructureCtx) of every built-in kernel
// and of generated nests of every shape (rectangular and row-indexed)
// against NewStructureCtx's: Len and EdgeCount agree, Points visits the
// eager V in order with vi running over 0…Len−1, Point(vi) inverts
// VertexIndex, NeighborIndex and NeighborOf equal VertexIndex(V[vi]+d)
// for every d in D and its negation, and the counted V stays nil
// throughout.
func TestPointsMatchEager(t *testing.T) {
	type tcase struct {
		name string
		n    *loop.Nest
		d    []vec.Int
	}
	var cases []tcase
	for _, name := range kernels.Names() {
		k, err := kernels.Lookup(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tcase{name, k.Nest, k.Deps})
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		n := indexTestNest(rng, trial)
		// Entries up to 3 leave a 1-deep nest its three distinct vectors.
		cases = append(cases, tcase{fmt.Sprintf("trial %d (%s)", trial, nestgen.Kinds[trial%len(nestgen.Kinds)]), n, nestgen.Deps(rng, n.Dims, 3)})
	}
	ctx := context.Background()
	rect, rows := 0, 0
	for _, tc := range cases {
		st, err := loop.NewStructureCtx(ctx, tc.n, tc.d...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c, err := loop.NewCountedStructureCtx(ctx, tc.n, tc.d...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.Rectangular() != st.Rectangular() {
			t.Fatalf("%s: counted structure rectangular %v, eager %v", tc.name, c.Rectangular(), st.Rectangular())
		}
		if st.Rectangular() {
			rect++
		} else {
			rows++
		}
		if got, want := c.EdgeCount(), st.EdgeCount(); got != want {
			t.Fatalf("%s: EdgeCount %d, want %d", tc.name, got, want)
		}
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
					want := st.VertexIndex(q)
					if got := c.VertexIndex(q); got != want {
						t.Fatalf("%s: VertexIndex(%v) = %d, want %d", tc.name, q, got, want)
					}
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
			t.Fatalf("%s: the counted structure built V", tc.name)
		}
	}
	if rect == 0 || rows == 0 {
		t.Fatalf("%d rectangular and %d row-indexed structures; want both", rect, rows)
	}
}

// TestCountedStructureStopsOnCancel: a triangular nest of about 1.5·10^12
// points is counted, never enumerated. Under a cancelled ctx the count
// walk stops within enumCheckEvery rows and returns ctx.Err() within a
// second; counting it to the end under a live ctx gives the closed-form
// size. Neither allocates per point: the row index holds one entry per
// row walked, 8 MB for the whole nest (about 40 MB allocated as it grows).
func TestCountedStructureStopsOnCancel(t *testing.T) {
	const m = 1_000_000
	// for i = 0 to m, for j = 0 to m + i: row i has m+i+1 points.
	n := &loop.Nest{
		Name:  "wide-triangle",
		Dims:  2,
		Lower: []loop.Affine{loop.Const(0), loop.Const(0)},
		Upper: []loop.Affine{loop.Const(m), {Const: m, Coeffs: []int64{1}}},
	}
	d := []vec.Int{vec.NewInt(0, 1), vec.NewInt(1, 0)}
	build := func(ctx context.Context) (*loop.Structure, time.Duration, uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		st, err := loop.NewCountedStructureCtx(ctx, n, d...)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return st, elapsed, after.TotalAlloc - before.TotalAlloc, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, elapsed, alloc, err := build(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled count: err = %v, want context.Canceled", err)
	}
	if elapsed > time.Second || alloc > 1<<20 {
		t.Fatalf("cancelled count took %v and allocated %d B; want under 1 s and 1 MiB", elapsed, alloc)
	}

	st, elapsed, alloc, err := build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := (m+1)*(m+1) + m*(m+1)/2
	if st.Len() != want || st.V != nil || st.Rectangular() {
		t.Fatalf("Len %d, |V| %d, rectangular %v; want Len %d, V nil, the row index", st.Len(), len(st.V), st.Rectangular(), want)
	}
	if alloc > 64<<20 {
		t.Fatalf("counting %d points allocated %d B; want the row index only", want, alloc)
	}
	t.Logf("counted %d points in %v, %d B allocated", want, elapsed, alloc)
}
