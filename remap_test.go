package loopmap

import (
	"fmt"
	"testing"

	"repro/internal/pool"
)

// TestRemapMatchesNewPlan checks that a remapped plan simulates identically
// to a plan built from scratch at the same cube dimension.
func TestRemapMatchesNewPlan(t *testing.T) {
	base, err := NewPlan(NewKernel("matmul", 8), PlanOptions{CubeDim: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, dim := range []int{-1, 0, 2, 4} {
		remapped, err := base.Remap(dim)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPlan(NewKernel("matmul", 8), PlanOptions{CubeDim: dim})
		if err != nil {
			t.Fatal(err)
		}
		if remapped.Procs() != fresh.Procs() {
			t.Fatalf("dim %d: procs remap=%d fresh=%d", dim, remapped.Procs(), fresh.Procs())
		}
		rs, err := remapped.Simulate(Era1991(), SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := fresh.Simulate(Era1991(), SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rs.Makespan != fs.Makespan || rs.Words != fs.Words {
			t.Fatalf("dim %d: remap makespan=%v words=%d, fresh makespan=%v words=%d",
				dim, rs.Makespan, rs.Words, fs.Makespan, fs.Words)
		}
	}
	if base.Mapping != nil {
		t.Fatal("Remap mutated the base plan's mapping")
	}
}

// TestRemapParallelSimulate exercises the sweep drivers' sharing pattern
// under the race detector: many goroutines remap one base plan and simulate
// concurrently. Run with -race to validate that the shared structure,
// schedule, and partitioning artifacts are read-only.
func TestRemapParallelSimulate(t *testing.T) {
	base, err := NewPlan(NewKernel("matvec", 32), PlanOptions{CubeDim: -1})
	if err != nil {
		t.Fatal(err)
	}
	var dims []int
	for range 2 {
		dims = append(dims, 0, 1, 2, 3, 4, 5)
	}
	makespans, err := pool.MapErr(len(dims), func(i int) (float64, error) {
		plan, err := base.Remap(dims[i])
		if err != nil {
			return 0, err
		}
		s, err := plan.Simulate(Era1991(), SimOptions{})
		if err != nil {
			return 0, err
		}
		return s.Makespan, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each result must be reproducible sequentially.
	for i, dim := range dims {
		plan, err := base.Remap(dim)
		if err != nil {
			t.Fatal(err)
		}
		s, err := plan.Simulate(Era1991(), SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan != makespans[i] {
			t.Errorf("dim %d: parallel makespan %v != sequential %v", dim, makespans[i], s.Makespan)
		}
	}
}

// Example use of the sweep-style sharing: build the expensive pipeline
// stages once, then remap across machine sizes to pick the best cube on a
// compute-bound machine.
func ExamplePlan_Remap() {
	base, err := NewPlan(NewKernel("matvec", 64), PlanOptions{CubeDim: -1})
	if err != nil {
		panic(err)
	}
	computeBound := Params{TCalc: 50, TStart: 2, TComm: 1}
	best := -1.0
	bestDim := 0
	for dim := 0; dim <= 4; dim++ {
		plan, err := base.Remap(dim)
		if err != nil {
			panic(err)
		}
		s, err := plan.Simulate(computeBound, SimOptions{})
		if err != nil {
			panic(err)
		}
		if best < 0 || s.Makespan < best {
			best, bestDim = s.Makespan, dim
		}
	}
	fmt.Println("best cube dimension:", bestDim)
	// Output:
	// best cube dimension: 4
}
