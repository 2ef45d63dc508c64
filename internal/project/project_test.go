package project

import (
	"errors"
	"testing"

	"repro/internal/loop"
	"repro/internal/vec"
)

func l1Projected(t *testing.T) *Structure {
	t.Helper()
	n := loop.NewRect("L1", []int64{0, 0}, []int64{3, 3})
	st, err := loop.NewStructure(n, vec.NewInt(0, 1), vec.NewInt(1, 0), vec.NewInt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Project(st, vec.NewInt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func matmulProjected(t *testing.T, sz int64) *Structure {
	t.Helper()
	n := loop.NewRect("matmul", []int64{0, 0, 0}, []int64{sz - 1, sz - 1, sz - 1})
	st, err := loop.NewStructure(n, vec.NewInt(0, 1, 0), vec.NewInt(1, 0, 0), vec.NewInt(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Project(st, vec.NewInt(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestL1SevenProjectedPoints(t *testing.T) {
	// §II: "We get seven projected points" for loop L1 with Π=(1,1).
	ps := l1Projected(t)
	if ps.NumPoints() != 7 {
		t.Fatalf("|V^p| = %d, want 7", ps.NumPoints())
	}
	if ps.S != 2 {
		t.Fatalf("s = %d, want 2", ps.S)
	}
	// The paper lists V^p = {(-3/2,3/2), (-1,1), (-1/2,1/2), (0,0),
	// (1/2,-1/2), (1,-1), (3/2,-3/2)}; scaled by 2 these are:
	want := []vec.Int{
		vec.NewInt(-3, 3), vec.NewInt(-2, 2), vec.NewInt(-1, 1), vec.NewInt(0, 0),
		vec.NewInt(1, -1), vec.NewInt(2, -2), vec.NewInt(3, -3),
	}
	for _, w := range want {
		if !ps.HasPoint(w) {
			t.Errorf("missing projected point %v (scaled)", w)
		}
	}
}

func TestL1ProjectedDeps(t *testing.T) {
	ps := l1Projected(t)
	// d1=(0,1) -> (-1/2,1/2) scaled (-1,1), r=2
	// d2=(1,0) -> (1/2,-1/2) scaled (1,-1), r=2
	// d3=(1,1) -> (0,0), r=1
	got := map[string]int64{}
	for _, d := range ps.Deps {
		got[d.Scaled.Key()] = d.R
	}
	if got["-1,1"] != 2 || got["1,-1"] != 2 || got["0,0"] != 1 {
		t.Fatalf("projected deps/r wrong: %v", got)
	}
	if ps.GroupSizeR() != 2 {
		t.Fatalf("r = %d, want 2", ps.GroupSizeR())
	}
	if nz := ps.NonzeroDeps(); len(nz) != 2 {
		t.Fatalf("nonzero deps = %d, want 2", len(nz))
	}
}

func TestL1Fibers(t *testing.T) {
	ps := l1Projected(t)
	// The diagonal line through (0,0): points (0,0),(1,1),(2,2),(3,3).
	i := ps.IndexOf(vec.NewInt(0, 0))
	if i < 0 {
		t.Fatal("projected point (0,0) missing")
	}
	fib := ps.FiberPoints(i)
	if len(fib) != 4 {
		t.Fatalf("main diagonal fiber has %d points, want 4", len(fib))
	}
	for k, p := range fib {
		if !p.Equal(vec.NewInt(int64(k), int64(k))) {
			t.Errorf("fiber[%d] = %v, want (%d,%d)", k, p, k, k)
		}
	}
	// Total fiber sizes must cover all 16 points.
	total := 0
	for i := range ps.NumPoints() {
		total += int(ps.Fibers[i].Len)
	}
	if total != 16 {
		t.Fatalf("fibers cover %d points, want 16", total)
	}
}

func TestFibersSortedByTime(t *testing.T) {
	ps := matmulProjected(t, 4)
	for i := range ps.NumPoints() {
		pts := ps.FiberPoints(i)
		for j := 1; j < len(pts); j++ {
			if ps.Pi.Dot(pts[j-1]) >= ps.Pi.Dot(pts[j]) {
				t.Fatalf("fiber %d not sorted by time: %v", i, pts)
			}
		}
	}
}

func TestMatMul37ProjectedPoints(t *testing.T) {
	// Fig. 5: "There are 37 projected points" for the 4×4×4 matmul.
	ps := matmulProjected(t, 4)
	if ps.NumPoints() != 37 {
		t.Fatalf("|V^p| = %d, want 37", ps.NumPoints())
	}
	if ps.S != 3 {
		t.Fatalf("s = %d, want 3", ps.S)
	}
}

func TestMatMulProjectedDeps(t *testing.T) {
	ps := matmulProjected(t, 4)
	// d_A=(0,1,0) -> (-1/3,2/3,-1/3), d_B=(1,0,0) -> (2/3,-1/3,-1/3),
	// d_C=(0,0,1) -> (-1/3,-1/3,2/3); all with r=3 (Step 1 of Example 2).
	wantScaled := map[string]bool{"-1,2,-1": true, "2,-1,-1": true, "-1,-1,2": true}
	for _, d := range ps.Deps {
		if !wantScaled[d.Scaled.Key()] {
			t.Errorf("unexpected scaled dep %v", d.Scaled)
		}
		if d.R != 3 {
			t.Errorf("r(%v) = %d, want 3", d.Scaled, d.R)
		}
	}
	if ps.GroupSizeR() != 3 {
		t.Fatalf("r = %d, want 3", ps.GroupSizeR())
	}
}

func TestProjectionOrthogonality(t *testing.T) {
	// Every scaled projected point must satisfy Π·p = 0 (it lies on the
	// zero-hyperplane), and projection must be reproducible via ProjectionOf.
	ps := matmulProjected(t, 4)
	for i, p := range pointList(ps) {
		if ps.Pi.Dot(p) != 0 {
			t.Fatalf("point %d = %v not on zero-hyperplane", i, p)
		}
	}
	for _, x := range ps.Orig.V {
		sp := ps.ProjectionOf(x)
		if !ps.HasPoint(sp) {
			t.Fatalf("projection of %v missing from V^p", x)
		}
	}
}

func TestFiberEquivalence(t *testing.T) {
	// Two index points share a fiber iff their difference is parallel to Π.
	ps := l1Projected(t)
	for i := range ps.NumPoints() {
		pts := ps.FiberPoints(i)
		for a := 0; a < len(pts); a++ {
			for b := a + 1; b < len(pts); b++ {
				d := pts[b].Sub(pts[a])
				// d must be t·Π for integer t (here Π=(1,1)).
				if d[0] != d[1] {
					t.Fatalf("fiber points %v,%v not aligned with Π", pts[a], pts[b])
				}
			}
		}
	}
}

func TestMatVecProjection(t *testing.T) {
	// §IV: matvec with Π=(1,1) has 2M-1 projected points and
	// D^p = {(1/2,-1/2), (-1/2,1/2)} with r=2.
	const m = 8
	n := loop.NewRect("matvec", []int64{1, 1}, []int64{m, m})
	st, err := loop.NewStructure(n, vec.NewInt(1, 0), vec.NewInt(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Project(st, vec.NewInt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumPoints() != 2*m-1 {
		t.Fatalf("|V^p| = %d, want %d", ps.NumPoints(), 2*m-1)
	}
	if ps.GroupSizeR() != 2 {
		t.Fatalf("r = %d, want 2", ps.GroupSizeR())
	}
}

func TestSkewedPiLargeRFactor(t *testing.T) {
	// Stencil dependences {(1,-1),(1,0),(1,1)} under the skewed Π = (2,1):
	// s = 5 and e.g. d=(1,0) projects to (1,-2)/5, needing r = 5 — a group
	// size the paper's own examples never exercise.
	n := loop.NewRect("stencil", []int64{0, 0}, []int64{5, 5})
	st, err := loop.NewStructure(n, vec.NewInt(1, -1), vec.NewInt(1, 0), vec.NewInt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Project(st, vec.NewInt(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ps.S != 5 {
		t.Fatalf("s = %d, want 5", ps.S)
	}
	if r := ps.GroupSizeR(); r != 5 {
		t.Fatalf("r = %d, want 5", r)
	}
	// All projections stay on the zero-hyperplane.
	for _, p := range pointList(ps) {
		if ps.Pi.Dot(p) != 0 {
			t.Fatalf("point %v off the zero-hyperplane", p)
		}
	}
}

func TestProjectRejectsInvalidPi(t *testing.T) {
	n := loop.NewRect("L1", []int64{0, 0}, []int64{3, 3})
	st, err := loop.NewStructure(n, vec.NewInt(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Project(st, vec.NewInt(1, 0)); err == nil {
		t.Fatal("Π orthogonal to dependence accepted")
	}
	if _, err := Project(st, vec.NewInt(1)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// TestProjectRefusesTooManyPoints: a structure of more index points than
// the fiber tables index is ErrTooLarge, and one at the bound projects.
// Project's bound is math.MaxInt32; project takes it as a parameter so a
// 16-point structure can stand in for one past it.
func TestProjectRefusesTooManyPoints(t *testing.T) {
	n := loop.NewRect("L1", []int64{0, 0}, []int64{3, 3})
	st, err := loop.NewStructure(n, vec.NewInt(0, 1), vec.NewInt(1, 0), vec.NewInt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := project(st, vec.NewInt(1, 1), st.Len()-1)
	if !errors.Is(err, loop.ErrTooLarge) || ps != nil {
		t.Fatalf("16 points under a bound of 15: %v, %v; want ErrTooLarge and no structure", ps, err)
	}
	ps, err = project(st, vec.NewInt(1, 1), st.Len())
	if err != nil || ps.NumPoints() != 7 {
		t.Fatalf("16 points under a bound of 16: %v; want the 7 projected points", err)
	}
}

func TestRatPointDisplay(t *testing.T) {
	ps := l1Projected(t)
	i := ps.IndexOf(vec.NewInt(-3, 3))
	if i < 0 {
		t.Fatal("point missing")
	}
	if got := ps.RatPoint(i).String(); got != "(-3/2, 3/2)" {
		t.Errorf("RatPoint = %q", got)
	}
}

func TestRFactorEdgeCases(t *testing.T) {
	// Dependence parallel to Π projects to zero and must get R == 1.
	if r := rFactor(vec.NewInt(0, 0), 2); r != 1 {
		t.Errorf("rFactor(0) = %d, want 1", r)
	}
	// Integral projection: scaled = s * integer vector.
	if r := rFactor(vec.NewInt(2, -2), 2); r != 1 {
		t.Errorf("rFactor(integral) = %d, want 1", r)
	}
	// Mixed: s=6, scaled=(3,2): components need 2 and 3 -> lcm 6.
	if r := rFactor(vec.NewInt(3, 2), 6); r != 6 {
		t.Errorf("rFactor((3,2)/6) = %d, want 6", r)
	}
}
