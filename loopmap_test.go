package loopmap

import (
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loop"
)

func TestNewPlanMatMulDefaults(t *testing.T) {
	plan, err := NewPlan(NewKernel("matmul", 4), PlanOptions{CubeDim: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partitioning.NumBlocks() != 17 {
		t.Fatalf("blocks = %d, want 17", plan.Partitioning.NumBlocks())
	}
	if plan.Schedule.Steps() != 10 {
		t.Fatalf("steps = %d, want 10", plan.Schedule.Steps())
	}
	if plan.Procs() != 8 {
		t.Fatalf("procs = %d, want 8", plan.Procs())
	}
	if plan.Mapping == nil {
		t.Fatal("mapping missing")
	}
}

func TestNewPlanNoMapping(t *testing.T) {
	plan, err := NewPlan(NewKernel("matvec", 8), PlanOptions{CubeDim: -1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mapping != nil {
		t.Fatal("mapping should be skipped")
	}
	if plan.Procs() != plan.Partitioning.NumBlocks() {
		t.Fatalf("procs = %d, want one per block (%d)", plan.Procs(), plan.Partitioning.NumBlocks())
	}
	if _, err := plan.EvaluateMapping(); err == nil {
		t.Fatal("EvaluateMapping without mapping should error")
	}
}

// TestProcsMatchesPlacement: Procs reads the processor count without
// building a placement, and agrees with the placement the simulators and
// Execute use for unmapped, mapped and degraded plans.
func TestProcsMatchesPlacement(t *testing.T) {
	unmapped, err := NewPlan(NewKernel("matmul", 4), PlanOptions{CubeDim: -1})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := unmapped.Remap(2)
	if err != nil {
		t.Fatal(err)
	}
	degraded, _, err := mapped.RemapDegraded([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		plan *Plan
	}{{"unmapped", unmapped}, {"mapped", mapped}, {"degraded", degraded}} {
		if got, want := c.plan.Procs(), c.plan.placement().NumProcs; got != want {
			t.Errorf("%s: Procs() = %d, placement has %d", c.name, got, want)
		}
	}
}

func TestNewPlanSearchPi(t *testing.T) {
	plan, err := NewPlan(NewKernel("l1", 3), PlanOptions{SearchPi: true, CubeDim: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Schedule.Pi.Equal(Vec(1, 1)) {
		t.Fatalf("searched Π = %v, want (1,1)", plan.Schedule.Pi)
	}
}

func TestNewPlanExplicitPi(t *testing.T) {
	// A skewed Π = (2,1) on the stencil: s = 5, r = 5, and the whole
	// pipeline — including real concurrent execution — must still verify.
	plan, err := NewPlan(NewKernel("stencil", 6), PlanOptions{Pi: Vec(2, 1), CubeDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Schedule.Pi.Equal(Vec(2, 1)) {
		t.Fatalf("Π = %v", plan.Schedule.Pi)
	}
	if plan.Partitioning.R != 5 {
		t.Fatalf("r = %d, want 5", plan.Partitioning.R)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPlanRejectsBadPi(t *testing.T) {
	if _, err := NewPlan(NewKernel("matmul", 4), PlanOptions{Pi: Vec(1, -1, 0)}); err == nil {
		t.Fatal("invalid Π accepted")
	}
}

func TestNewPlanNilKernel(t *testing.T) {
	if _, err := NewPlan(nil, PlanOptions{}); err == nil {
		t.Fatal("nil kernel accepted")
	}
}

func TestVerifyAllKernels(t *testing.T) {
	for _, name := range KernelNames() {
		plan, err := NewPlan(NewKernel(name, 5), PlanOptions{CubeDim: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := plan.Verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestSimulateSpeedup(t *testing.T) {
	plan, err := NewPlan(NewKernel("matvec", 32), PlanOptions{CubeDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := Params{TCalc: 10, TStart: 1, TComm: 1}
	seq, err := plan.SimulateSequential(params)
	if err != nil {
		t.Fatal(err)
	}
	par, err := plan.Simulate(params, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if par.Makespan >= seq.Makespan {
		t.Fatalf("no speedup: %v vs %v", par.Makespan, seq.Makespan)
	}
}

func TestSummaryContents(t *testing.T) {
	plan, err := NewPlan(NewKernel("matmul", 4), PlanOptions{CubeDim: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Summary()
	for _, want := range []string{"matmul", "17 blocks", "Theorem 2 bound 4", "hypercube(dim=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestNewKernelPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kernel did not panic")
		}
	}()
	NewKernel("nope", 4)
}

func TestKernelNamesNonEmpty(t *testing.T) {
	names := KernelNames()
	if len(names) < 7 {
		t.Fatalf("kernels = %v", names)
	}
}

func TestEraParams(t *testing.T) {
	if err := Era1991().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := UnitParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseKernelEndToEnd(t *testing.T) {
	src := `
for i = 0 to 7
for j = 0 to 7
{
  A[i+1, j+1] = A[i+1, j] + B[i, j]
  B[i+1, j]   = A[i, j] * 2 + C
}
`
	k, err := ParseKernel("parsed-l1", src, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Pi.Equal(Vec(1, 1)) {
		t.Fatalf("Π = %v", k.Pi)
	}
	plan, err := NewPlan(k, PlanOptions{CubeDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestParseKernelErrors(t *testing.T) {
	if _, err := ParseKernel("bad", "for i = 0 to", 1); err == nil {
		t.Fatal("syntax error accepted")
	}
	// No loop-carried dependences.
	if _, err := ParseKernel("nodeps", "for i = 0 to 3\n{\n A[i] = B[i]\n}", 1); err == nil {
		t.Fatal("dependence-free loop accepted")
	}
	// No valid time function within the search bound: deps {(0,1),(1,-5)}
	// need Π = (a,b) with b > 0 and a > 5b, i.e. a >= 6 > bound 3.
	src := "for i = 0 to 3\nfor j = 0 to 9\n{\n A[i, j+1] = A[i, j]\n B[i+1, j-5] = B[i, j]\n}"
	if _, err := ParseKernel("steep", src, 1); err == nil {
		t.Fatal("schedule outside search bound accepted")
	}
}

func TestMapOntoMesh(t *testing.T) {
	plan, err := NewPlan(NewKernel("matmul", 6), PlanOptions{CubeDim: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, st, err := plan.MapOntoMesh(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mesh.N() != 8 {
		t.Fatalf("mesh N = %d", m.Mesh.N())
	}
	if st.MaxLoad <= 0 || st.HopWeight <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Simulation on the mesh must complete with the same total work.
	s, err := plan.SimulateMesh(2, 4, UnitParams(), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, b := range s.Busy {
		total += b
	}
	want := float64(len(plan.Structure.V) * plan.Kernel.Nest.OpsPerIteration())
	if total != want {
		t.Fatalf("mesh sim busy %v, want %v", total, want)
	}
	if _, err := plan.SimulateMesh(3, 3, UnitParams(), SimOptions{}); err == nil {
		t.Fatal("non-power-of-two mesh accepted")
	}
}

func TestSimulateWithoutMapping(t *testing.T) {
	// CubeDim < 0: the simulator and executor fall back to one block per
	// processor.
	plan, err := NewPlan(NewKernel("matvec", 12), PlanOptions{CubeDim: -1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := plan.Simulate(UnitParams(), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Busy) != plan.Partitioning.NumBlocks() {
		t.Fatalf("procs = %d, want one per block", len(s.Busy))
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyErrorPaths(t *testing.T) {
	plan, err := NewPlan(NewKernel("matvec", 6), PlanOptions{CubeDim: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan.Kernel.Sem = nil
	if err := plan.Verify(); err == nil {
		t.Fatal("Verify without semantics should error")
	}
}

func TestSteppedNestThroughPipeline(t *testing.T) {
	// A non-unit-stride loop is normalized (the paper's "WLOG k_j = 1")
	// and then flows through the whole pipeline.
	s := &loop.SteppedNest{
		Name:  "stepped",
		Lower: []int64{2, 1},
		Upper: []int64{16, 13},
		Step:  []int64{2, 3},
		Stmts: []loop.Stmt{{
			Label:  "S1",
			Writes: []loop.Access{{Var: "A", Offset: Vec(0, 0)}},
			Reads:  []loop.Access{{Var: "A", Offset: Vec(-2, 0)}, {Var: "A", Offset: Vec(0, -3)}},
		}},
	}
	nest, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	deps := nest.Dependences()
	k := kernels.Generic("stepped", nest, deps, Vec(1, 1), 5)
	plan, err := NewPlan(k, PlanOptions{CubeDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	// 8×5 normalized iterations.
	if len(plan.Structure.V) != 40 {
		t.Fatalf("|V| = %d, want 40", len(plan.Structure.V))
	}
}

func TestPartitionChoiceThroughFacade(t *testing.T) {
	// Forcing each admissible grouping vector must keep the invariants.
	for choice := 1; choice <= 3; choice++ {
		plan, err := NewPlan(NewKernel("matmul", 4), PlanOptions{
			CubeDim:   2,
			Partition: PartitionOptions{GroupingChoice: choice},
		})
		if err != nil {
			t.Fatalf("choice %d: %v", choice, err)
		}
		if err := plan.Verify(); err != nil {
			t.Fatalf("choice %d: %v", choice, err)
		}
	}
}
