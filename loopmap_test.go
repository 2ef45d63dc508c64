package loopmap

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
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
		if got, want := c.plan.Procs(), c.plan.assignment().NumProcs; got != want {
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

// TestNewPlanRefusesOverflowingPi: an explicit Π whose Π·Π, scaled
// projections or Π·d leave int64 is refused with ErrTooLarge instead of
// panicking or planning on wrapped values (Π = (2^32, 1) once planned
// l1/8 with S wrapped to 1 and β = 2, impossible in two dimensions). A
// large Π that fits plans as its primitive direction does.
func TestNewPlanRefusesOverflowingPi(t *testing.T) {
	for _, pi := range []IntVec{
		Vec(1<<32, 1<<32),                 // Π·Π wraps to 0
		Vec(1<<31, 1<<31),                 // Π·Π wraps to math.MinInt64
		Vec(1<<32, 1),                     // Π·Π wraps to 1
		Vec(3037000499, 1),                // Π·Π fits, s·x does not
		Vec(math.MaxInt64, math.MaxInt64), // Π·d overflows
	} {
		if _, err := NewPlan(NewKernel("l1", 8), PlanOptions{Pi: pi, CubeDim: 3}); !errors.Is(err, ErrTooLarge) {
			t.Errorf("Π = %v: err = %v, want ErrTooLarge", pi, err)
		}
	}
	want, err := NewPlan(NewKernel("l1", 8), PlanOptions{Pi: Vec(1, 1), CubeDim: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewPlan(NewKernel("l1", 8), PlanOptions{Pi: Vec(1<<20, 1<<20), CubeDim: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := shapeOf(got), shapeOf(want); g != w {
		t.Fatalf("Π = (2^20, 2^20) plans %+v, Π = (1, 1) %+v", g, w)
	}
}

// planShape is what scaling Π leaves unchanged in a plan: β, R, the
// block count and the TIG's edge count.
type planShape struct {
	beta, blocks, edges int
	r                   int64
}

func shapeOf(p *Plan) planShape {
	return planShape{p.Partitioning.Beta, p.Partitioning.NumBlocks(), len(p.TIG.Edges), p.Partitioning.R}
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

// TestHugeMergeFactorBeatsItsDeadline: a merge factor far past the
// kernel's extent plans as quickly as a small one, because Algorithm 1
// scans each group only where it meets the projected points' bounding
// box, and a merge factor whose r·q or R·d_l^p overflows int64 is refused
// as ErrTooLarge. Each plan runs under a 2 s deadline and must return
// within 5 s.
func TestHugeMergeFactorBeatsItsDeadline(t *testing.T) {
	type result struct {
		p   *Plan
		err error
	}
	plan := func(q int64) (*Plan, error) {
		t.Helper()
		done := make(chan result, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			p, err := NewPlanCtx(ctx, NewKernel("l1", 8), PlanOptions{
				CubeDim: 2, Partition: PartitionOptions{MergeFactor: q},
			})
			done <- result{p, err}
		}()
		select {
		case r := <-done:
			return r.p, r.err
		case <-time.After(5 * time.Second):
			t.Fatalf("merge factor %d: NewPlanCtx still running after 5 s under a 2 s deadline", q)
			return nil, nil
		}
	}
	spanning, err := plan(64)
	if err != nil {
		t.Fatal(err)
	}
	r := spanning.Partitioning.R / 64
	for _, q := range []int64{1 << 40, math.MaxInt64 / (4 * r)} {
		p, err := plan(q)
		if err != nil {
			t.Fatalf("merge factor %d: %v", q, err)
		}
		if p.Partitioning.NumBlocks() != spanning.Partitioning.NumBlocks() || p.TIG.TotalTraffic() != spanning.TIG.TotalTraffic() {
			t.Fatalf("merge factor %d gives %d blocks and traffic %d, 64 gives %d and %d", q,
				p.Partitioning.NumBlocks(), p.TIG.TotalTraffic(), spanning.Partitioning.NumBlocks(), spanning.TIG.TotalTraffic())
		}
	}
	for _, q := range []int64{math.MaxInt64, math.MaxInt64 / r} {
		if _, err := plan(q); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("merge factor %d: err = %v, want ErrTooLarge", q, err)
		}
	}
}
