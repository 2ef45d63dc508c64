// Stencil applies the paper's pipeline to a kernel it never shows — a 1-D
// three-point stencil iterated over time — and exercises the corners of
// the method:
//
//   - the optimal time function is Π = (1,0), not the diagonal (1,1);
//   - the projected dependence vectors are already integral, so r = 1 and
//     every projection line is its own block (the grouping degenerates to
//     the line-per-block baseline, as the theory predicts);
//   - dependence vectors with negative components, (1,−1), still partition
//     and map correctly.
//
// The example compares partitionings, maps the blocks onto a 3-cube, and
// verifies the real concurrent execution.
//
// Run with: go run ./examples/stencil
package main

import (
	"fmt"
	"log"
	"os"

	loopmap "repro"
	"repro/internal/baselines"
	"repro/internal/report"
)

func main() {
	const size = 16
	k := loopmap.NewKernel("stencil", size)

	// The hyperplane search discovers Π = (1,0): with dependences
	// {(1,-1),(1,0),(1,1)} all of Π·d must be positive, and (1,0) finishes
	// in `steps` timesteps while (1,1) or (2,1) would be slower.
	plan, err := loopmap.NewPlan(k, loopmap.PlanOptions{SearchPi: true, CubeDim: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan.Summary())
	if !plan.Schedule.Pi.Equal(loopmap.Vec(1, 0)) {
		log.Fatalf("expected Π = (1,0), got %v", plan.Schedule.Pi)
	}

	// r = 1: the grouping theory says each group is a single projection
	// line here, so the paper partitioning coincides with line-per-block.
	lines := baselines.LinePerBlock(plan.Projected)
	paper := baselines.FromPartitioning("paper", plan.Partitioning.BlockOf(), plan.Partitioning.NumBlocks())
	tb := report.NewTable("method", "blocks", "interblock/total")
	for _, b := range []*baselines.Blocks{paper, lines} {
		es := b.EdgeStats(plan.Structure)
		tb.AddRow(b.Name, b.N, fmt.Sprintf("%d/%d", es.InterBlock, es.Total))
	}
	fmt.Println("\nwith r = 1 the grouping degenerates to line-per-block, as predicted:")
	tb.Render(os.Stdout)

	// Independent partitioning serializes the stencil (det of the
	// dependence lattice is 1) — grouping is the only way to run it in
	// parallel with bounded communication.
	indep, err := baselines.Independent(plan.Structure)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nindependent partitioning finds %d block(s): the GCD/minimum-distance\n"+
		"methods would run this stencil sequentially\n", indep.N)

	// Mapping: columns of the stencil land on Gray-coded nodes so that
	// neighbouring columns (which exchange halo values every timestep) sit
	// on adjacent hypercube nodes.
	ms, err := plan.EvaluateMapping()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmapping onto %v: hop-weight %d, max dilation %d\n",
		plan.Mapping.Cube, ms.HopWeight, ms.MaxDilation)

	if err := plan.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstencil executed on 8 goroutine-processors; result matches the sequential sweep")
}
