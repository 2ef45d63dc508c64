package loopmap

import (
	"context"
	"reflect"
	"testing"
)

// TestCompactPlanRunsMatchEager: on a plan built from a compact stage,
// Verify passes and Execute, the simulation, the sequential
// baseline and the placement the SPMD generator reads all equal the eager
// NewPlan's, for every built-in kernel. The first run builds V. The
// compact stage shares the stage's line graph rather than copying it.
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
		compact, err := st.Compact().PlanCtx(ctx, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eager, err := NewPlan(k, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if compact.Structure.Materialized() {
			t.Fatalf("%s: planning built V", name)
		}
		if a, b := compact.Projected.Arcs, st.Projected.Arcs; len(a) == 0 || &a[0] != &b[0] {
			t.Fatalf("%s: the compact stage does not share the stage's line graph", name)
		}
		if got, want := compact.Summary(), eager.Summary(); got != want {
			t.Fatalf("%s: compact summary\n%s\neager\n%s", name, got, want)
		}
		if ca, ea := compact.assignment(), eager.assignment(); ca.NumProcs != ea.NumProcs || !reflect.DeepEqual(ca.ProcOf, ea.ProcOf) {
			t.Fatalf("%s: compact and eager placements differ", name)
		}
		if !compact.Structure.Materialized() {
			t.Fatalf("%s: placement did not build V", name)
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
	}
}
