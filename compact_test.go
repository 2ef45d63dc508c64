package loopmap

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/loop"
)

// TestCompactPlanRunsMatchEager: on a plan built from a PrepareCtx stage,
// whose structure is counted and holds no V, Verify passes and Execute,
// the simulation, the sequential baseline and the placement the SPMD
// generator reads all equal the eager NewPlan's, for every built-in
// kernel, and none of them builds V. The plan shares the stage's line
// graph rather than copying it.
func TestCompactPlanRunsMatchEager(t *testing.T) {
	ctx := context.Background()
	for _, name := range KernelNames() {
		size := int64(7)
		switch name {
		case "closure", "matmul", "sor2d":
			size = 3
		}
		k := NewKernel(name, size)
		opt := PlanOptions{CubeDim: 2}
		st, err := PrepareCtx(ctx, k, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Structure.V != nil {
			t.Fatalf("%s: PrepareCtx built V", name)
		}
		compact, err := st.PlanCtx(ctx, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eager, err := NewPlan(k, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if compact.Structure.V != nil {
			t.Fatalf("%s: planning built V", name)
		}
		if n := eager.Structure.Len(); len(eager.Structure.V) != n || compact.Structure.Len() != n {
			t.Fatalf("%s: eager |V| %d and Len %d, counted Len %d; NewPlan fills V", name, len(eager.Structure.V), n, compact.Structure.Len())
		}
		if a, b := compact.Projected.Arcs, st.Projected.Arcs; len(a) == 0 || &a[0] != &b[0] {
			t.Fatalf("%s: the plan does not share the stage's line graph", name)
		}
		if got, want := compact.Summary(), eager.Summary(); got != want {
			t.Fatalf("%s: compact summary\n%s\neager\n%s", name, got, want)
		}
		if ca, ea := compact.assignment(), eager.assignment(); ca.NumProcs != ea.NumProcs || !reflect.DeepEqual(ca.ProcOf, ea.ProcOf) {
			t.Fatalf("%s: compact and eager placements differ", name)
		}
		if compact.Structure.V != nil {
			t.Fatalf("%s: placement built V", name)
		}
		if err := compact.Verify(); err != nil {
			t.Fatalf("%s: compact Verify: %v", name, err)
		}
		gotRes, gotStats, err := compact.Execute()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantRes, wantStats, err := eager.Execute()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !gotRes.Equal(wantRes) || !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("%s: compact execution %+v differs from eager %+v", name, gotStats, wantStats)
		}
		got, err := compact.Simulate(Era1991(), SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := eager.Simulate(Era1991(), SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: compact %+v, eager %+v", name, got, want)
		}
		got, err = compact.SimulateSequential(Era1991())
		if err != nil {
			t.Fatal(err)
		}
		want, err = eager.SimulateSequential(Era1991())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s sequential: compact %+v, eager %+v", name, got, want)
		}
		if compact.Structure.V != nil {
			t.Fatalf("%s: a run built V", name)
		}
	}
}

// TestPrepareRefusesHugeRectangularNest: PrepareCtx on a rectangular nest
// of 3·(2^31) points, past the projection's int32 point tables, fails at
// once with an error wrapping ErrTooLarge. The structure counts its
// points in closed form and project.Project's guard refuses the count,
// so nothing walks, let alone enumerates, the index set.
func TestPrepareRefusesHugeRectangularNest(t *testing.T) {
	n := loop.NewRect("huge", []int64{0, 0}, []int64{2, math.MaxInt32})
	k := kernels.Generic("huge", n, []IntVec{Vec(0, 1), Vec(1, 0)}, Vec(1, 1), 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := PrepareCtx(context.Background(), k, PlanOptions{})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; elapsed > time.Second || alloc > 1<<20 {
		t.Fatalf("refusing took %v and allocated %d B; want under 1 s and 1 MiB", elapsed, alloc)
	}
	t.Logf("%v in %v", err, elapsed)
}
