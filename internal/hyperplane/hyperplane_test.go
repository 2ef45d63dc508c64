package hyperplane

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/loop"
	"repro/internal/vec"
)

func l1Structure(t *testing.T) *loop.Structure {
	t.Helper()
	n := loop.NewRect("L1", []int64{0, 0}, []int64{3, 3})
	st, err := loop.NewStructure(n, vec.NewInt(0, 1), vec.NewInt(1, 0), vec.NewInt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func matmulStructure(t *testing.T, sz int64) *loop.Structure {
	t.Helper()
	n := loop.NewRect("matmul", []int64{0, 0, 0}, []int64{sz - 1, sz - 1, sz - 1})
	st, err := loop.NewStructure(n, vec.NewInt(0, 1, 0), vec.NewInt(1, 0, 0), vec.NewInt(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestValid(t *testing.T) {
	deps := []vec.Int{vec.NewInt(0, 1), vec.NewInt(1, 0), vec.NewInt(1, 1)}
	if !Valid(vec.NewInt(1, 1), deps) {
		t.Error("Π=(1,1) should be valid for L1")
	}
	if Valid(vec.NewInt(1, -1), deps) {
		t.Error("Π=(1,-1) gives Π·(0,1) = -1, invalid")
	}
	if Valid(vec.NewInt(0, 1), deps) {
		t.Error("Π=(0,1) gives Π·(1,0) = 0, invalid")
	}
}

func TestCheckMessages(t *testing.T) {
	if err := Check(vec.NewInt(0, 0), nil); err == nil {
		t.Error("zero Π must be rejected")
	}
	if err := Check(vec.NewInt(1, 0), []vec.Int{vec.NewInt(0, 1)}); err == nil {
		t.Error("orthogonal dependence must be rejected")
	}
	if err := Check(vec.NewInt(1, 1), []vec.Int{vec.NewInt(0, 1)}); err != nil {
		t.Errorf("valid Π rejected: %v", err)
	}
}

func TestScheduleL1(t *testing.T) {
	st := l1Structure(t)
	sch, err := NewSchedule(st, vec.NewInt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 1: hyperplanes i+j = 0 .. 6 — seven steps.
	if sch.Steps() != 7 {
		t.Fatalf("Steps = %d, want 7", sch.Steps())
	}
	if sch.MinTime != 0 || sch.MaxTime != 6 {
		t.Fatalf("time range [%d,%d], want [0,6]", sch.MinTime, sch.MaxTime)
	}
	if sch.Step(vec.NewInt(2, 3)) != 5 {
		t.Errorf("Step(2,3) = %d", sch.Step(vec.NewInt(2, 3)))
	}
}

func TestScheduleRespectsDependences(t *testing.T) {
	// Every dependence must advance time: Step(u+d) > Step(u).
	st := matmulStructure(t, 4)
	sch, err := NewSchedule(st, vec.NewInt(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	st.ForEachEdgeIdx(func(ui, vi, _ int) {
		if sch.Step(st.V[vi]) <= sch.Step(st.V[ui]) {
			t.Fatalf("edge %v->%v does not advance time", st.V[ui], st.V[vi])
		}
	})
}

func TestScheduleRejectsInvalidPi(t *testing.T) {
	st := l1Structure(t)
	if _, err := NewSchedule(st, vec.NewInt(1, -1)); err == nil {
		t.Fatal("invalid Π accepted")
	}
	if _, err := NewSchedule(st, vec.NewInt(1)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestFindOptimalL1(t *testing.T) {
	st := l1Structure(t)
	sch, err := FindOptimal(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sch.Pi.Equal(vec.NewInt(1, 1)) {
		t.Fatalf("optimal Π = %v, want (1,1)", sch.Pi)
	}
	if sch.Steps() != 7 {
		t.Fatalf("optimal steps = %d, want 7", sch.Steps())
	}
}

func TestFindOptimalMatMul(t *testing.T) {
	st := matmulStructure(t, 4)
	sch, err := FindOptimal(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sch.Pi.Equal(vec.NewInt(1, 1, 1)) {
		t.Fatalf("optimal Π = %v, want (1,1,1)", sch.Pi)
	}
	// Hyperplanes i+j+k = 0..9: ten steps.
	if sch.Steps() != 10 {
		t.Fatalf("steps = %d, want 10", sch.Steps())
	}
}

func TestFindOptimalSingleDependence(t *testing.T) {
	// Only d=(1,0): Π=(1,0) schedules columns in parallel — 4 steps on 4x4.
	n := loop.NewRect("col", []int64{0, 0}, []int64{3, 3})
	st, err := loop.NewStructure(n, vec.NewInt(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	sch, err := FindOptimal(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sch.Pi.Equal(vec.NewInt(1, 0)) || sch.Steps() != 4 {
		t.Fatalf("Π = %v steps = %d, want (1,0) and 4", sch.Pi, sch.Steps())
	}
}

func TestFindOptimalNormalizesPi(t *testing.T) {
	// With bound 2, (2,2) must collapse to (1,1) rather than be reported raw.
	st := l1Structure(t)
	sch, err := FindOptimal(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g := sch.Pi.ContentGCD(); g != 1 {
		t.Fatalf("Π = %v not normalized", sch.Pi)
	}
}

func TestFindOptimalNoSolution(t *testing.T) {
	// Dependences (1,0) and (-1,0) admit no Π with both dots positive.
	n := loop.NewRect("cycle", []int64{0, 0}, []int64{2, 2})
	st, err := loop.NewStructure(n, vec.NewInt(1, 0), vec.NewInt(-1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FindOptimal(st, 3); !errors.Is(err, ErrNoValidPi) {
		t.Fatalf("want ErrNoValidPi, got %v", err)
	}
}

func TestFindOptimalBadBound(t *testing.T) {
	st := l1Structure(t)
	if _, err := FindOptimal(st, 0); err == nil {
		t.Fatal("bound 0 accepted")
	}
}

// TestFindOptimalCtxStops: a canceled search returns the context's error
// at once, whatever its bound, and a 1-D search with bound math.MaxInt64
// whose loop would wrap at the top ends at its deadline.
func TestFindOptimalCtxStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, bound := range []int64{2, math.MaxInt64} {
		if _, err := FindOptimalCtx(ctx, l1Structure(t), bound); !errors.Is(err, context.Canceled) {
			t.Fatalf("bound %d: err = %v, want context.Canceled", bound, err)
		}
	}
	st, err := loop.NewStructure(loop.NewRect("line", []int64{0}, []int64{3}), vec.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := FindOptimalCtx(ctx, st, math.MaxInt64); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestStepsRectMatchesEnumeration(t *testing.T) {
	// On rectangular nests, Steps (read off the row ends) must equal the
	// spread of Π·x over the enumerated points plus one, including
	// negative Π components and shifted bounds.
	cases := []struct {
		pi     vec.Int
		lo, hi []int64
		deps   []vec.Int
	}{
		{vec.NewInt(1, 1), []int64{0, 0}, []int64{3, 3}, []vec.Int{vec.NewInt(0, 1), vec.NewInt(1, 0)}},
		{vec.NewInt(2, 1), []int64{0, 0}, []int64{5, 7}, []vec.Int{vec.NewInt(1, -1), vec.NewInt(0, 1)}},
		{vec.NewInt(1, -1), []int64{2, 1}, []int64{6, 4}, []vec.Int{vec.NewInt(1, 0), vec.NewInt(0, -1)}},
		{vec.NewInt(1, 1, 1), []int64{0, 0, 0}, []int64{3, 4, 5}, []vec.Int{vec.NewInt(1, 0, 0)}},
	}
	for _, c := range cases {
		n := loop.NewRect("r", c.lo, c.hi)
		st, err := loop.NewStructure(n, c.deps...)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := NewSchedule(st, c.pi)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, p := range st.V {
			lo, hi = min(lo, c.pi.Dot(p)), max(hi, c.pi.Dot(p))
		}
		if got := hi - lo + 1; got != sch.Steps() {
			t.Errorf("Π=%v over %v..%v: enumeration spans %d steps, Steps() = %d", c.pi, c.lo, c.hi, got, sch.Steps())
		}
	}
}

func TestWavefrontSizes(t *testing.T) {
	st := l1Structure(t)
	sch, err := NewSchedule(st, vec.NewInt(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	sizes := WavefrontSizes(st, sch)
	want := []int64{1, 2, 3, 4, 3, 2, 1}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v", sizes)
	}
	var total int64
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("sizes[%d] = %d, want %d", i, sizes[i], want[i])
		}
		total += sizes[i]
	}
	if total != 16 {
		t.Errorf("total = %d, want 16", total)
	}
}
