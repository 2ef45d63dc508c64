package loopmap

// Benchmark harness: one benchmark per table/figure of the paper (see the
// per-experiment index in DESIGN.md) plus ablation benches for the design
// choices the paper leaves open. Custom metrics report the quantities the
// paper's artifacts contain (block counts, interblock dependences, hop
// weights, symbolic T_exec coefficients) so `go test -bench=.` regenerates
// the evaluation alongside the timing numbers.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hyperplane"
	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/sim"
)

func mustPlan(b *testing.B, kernel string, size int64, dim int) *Plan {
	b.Helper()
	plan, err := NewPlan(NewKernel(kernel, size), PlanOptions{CubeDim: dim})
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkFig1StructureL1 regenerates Fig. 1: the computational structure
// and hyperplane schedule of loop L1.
func BenchmarkFig1StructureL1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := NewKernel("l1", 3)
		st, err := k.Structure()
		if err != nil {
			b.Fatal(err)
		}
		sch, err := hyperplane.NewSchedule(st, k.Pi)
		if err != nil {
			b.Fatal(err)
		}
		if sch.Steps() != 7 || st.EdgeCount() != 33 {
			b.Fatalf("Fig. 1 shape broken: steps=%d edges=%d", sch.Steps(), st.EdgeCount())
		}
	}
	b.ReportMetric(7, "hyperplanes")
	b.ReportMetric(33, "dependences")
}

// BenchmarkFig3PartitionL1 regenerates Fig. 3: the grouping of loop L1
// (4 blocks, 12 of 33 dependences interblock).
func BenchmarkFig3PartitionL1(b *testing.B) {
	var inter int
	for i := 0; i < b.N; i++ {
		plan := mustPlan(b, "l1", 3, -1)
		es := plan.TIG.EdgeStats()
		if plan.Partitioning.NumBlocks() != 4 || es.InterBlock != 12 {
			b.Fatalf("Fig. 3 shape broken: blocks=%d inter=%d", plan.Partitioning.NumBlocks(), es.InterBlock)
		}
		inter = es.InterBlock
	}
	b.ReportMetric(4, "blocks")
	b.ReportMetric(float64(inter), "interblock-deps")
}

// BenchmarkFig5ProjectMatMul regenerates Fig. 5: the projected structure of
// the 4×4×4 matrix multiplication (37 projected points, r = 3).
func BenchmarkFig5ProjectMatMul(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plan := mustPlan(b, "matmul", 4, -1)
		if plan.Projected.NumPoints() != 37 || plan.Partitioning.R != 3 {
			b.Fatalf("Fig. 5 shape broken: points=%d r=%d", plan.Projected.NumPoints(), plan.Partitioning.R)
		}
	}
	b.ReportMetric(37, "projected-points")
	b.ReportMetric(3, "group-size-r")
}

// BenchmarkFig7GroupMatMul regenerates Figs. 6–7: 17 groups with max TIG
// out-degree exactly the Theorem 2 bound 2m − β = 4.
func BenchmarkFig7GroupMatMul(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plan := mustPlan(b, "matmul", 4, -1)
		if plan.Partitioning.NumBlocks() != 17 || plan.TIG.MaxOutDegree() != 4 {
			b.Fatalf("Fig. 7 shape broken: blocks=%d outdeg=%d",
				plan.Partitioning.NumBlocks(), plan.TIG.MaxOutDegree())
		}
	}
	b.ReportMetric(17, "groups")
	b.ReportMetric(4, "max-out-degree")
}

// BenchmarkFig8MapTIG regenerates Fig. 8: a 4×4 mesh TIG Gray-mapped onto a
// 3-cube with mesh-edge dilation 1.
func BenchmarkFig8MapTIG(b *testing.B) {
	items := make([]mapping.Item, 0, 16)
	for y := int32(0); y < 4; y++ {
		for x := int32(0); x < 4; x++ {
			items = append(items, mapping.Item{ID: int(4*y + x), Coords: []int32{x, y}})
		}
	}
	for i := 0; i < b.N; i++ {
		res, err := mapping.MapItems(items, 3, mapping.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, cl := range res.Clusters {
			if len(cl) != 2 {
				b.Fatalf("Fig. 8 shape broken: cluster %v", cl)
			}
		}
	}
	b.ReportMetric(8, "clusters")
}

// BenchmarkFig9StructureMatVec regenerates Fig. 9: the computational
// structure of loop L5 (2M−1 projection lines, M blocks).
func BenchmarkFig9StructureMatVec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plan := mustPlan(b, "matvec", 16, -1)
		if plan.Projected.NumPoints() != 31 || plan.Partitioning.NumBlocks() != 16 {
			b.Fatalf("Fig. 9 shape broken")
		}
	}
	b.ReportMetric(31, "projection-lines")
}

// BenchmarkTable1MatVec regenerates Table I row by row: the symbolic
// coefficients of T_exec(N) for M = 1024.
func BenchmarkTable1MatVec(b *testing.B) {
	paperCalc := map[int64]int64{1: 2097152, 4: 786944, 16: 245888, 64: 64544, 256: 16328, 1024: 4094}
	for _, n := range analysis.PaperTableISizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var calc, comm int64
			for i := 0; i < b.N; i++ {
				calc = analysis.MatVecCalcOps(1024, n)
				comm = analysis.MatVecCommWords(1024, n)
				if calc != paperCalc[n] {
					b.Fatalf("Table I coefficient for N=%d: got %d, want %d", n, calc, paperCalc[n])
				}
			}
			b.ReportMetric(float64(calc), "tcalc-coeff")
			b.ReportMetric(float64(comm), "comm-coeff")
		})
	}
}

// BenchmarkTable1Simulated runs the detailed event simulation behind the
// Table I cross-check at a laptop-friendly M.
func BenchmarkTable1Simulated(b *testing.B) {
	const m = 128
	for _, dim := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("N=%d", 1<<uint(dim)), func(b *testing.B) {
			plan := mustPlan(b, "matvec", m, dim)
			var makespan float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := plan.Simulate(machine.Era1991(), SimOptions{})
				if err != nil {
					b.Fatal(err)
				}
				makespan = s.Makespan
			}
			b.ReportMetric(makespan, "makespan")
		})
	}
}

// BenchmarkAblationBaselines compares the paper's grouping against the
// baseline partitionings (A1 in DESIGN.md).
func BenchmarkAblationBaselines(b *testing.B) {
	plan := mustPlan(b, "matmul", 8, -1)
	st := plan.Structure
	blocks := map[string]*baselines.Blocks{
		"paper": baselines.FromPartitioning("paper", plan.Partitioning.BlockOf(), plan.Partitioning.NumBlocks()),
		"lines": baselines.LinePerBlock(plan.Projected),
	}
	if rr, err := baselines.RoundRobin(st, plan.Partitioning.NumBlocks()); err == nil {
		blocks["round-robin"] = rr
	}
	for name, bl := range blocks {
		b.Run(name, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				a := sim.Assignment{ProcOf: bl.Of, NumProcs: bl.N}
				s, err := sim.Simulate(st, plan.Schedule, a, machine.Params{TCalc: 50, TStart: 2, TComm: 1}, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				makespan = s.Makespan
			}
			es := bl.EdgeStats(st)
			b.ReportMetric(float64(es.InterBlock), "interblock-deps")
			b.ReportMetric(makespan, "makespan")
		})
	}
}

// BenchmarkAblationGroupingChoice sweeps the grouping-vector tie-break the
// paper leaves arbitrary.
func BenchmarkAblationGroupingChoice(b *testing.B) {
	for choice := 1; choice <= 3; choice++ {
		b.Run(fmt.Sprintf("choice=%d", choice), func(b *testing.B) {
			var traffic int64
			for i := 0; i < b.N; i++ {
				plan, err := NewPlan(NewKernel("matmul", 6), PlanOptions{
					CubeDim:   -1,
					Partition: PartitionOptions{GroupingChoice: choice},
				})
				if err != nil {
					b.Fatal(err)
				}
				traffic = plan.TIG.TotalTraffic()
			}
			b.ReportMetric(float64(traffic), "tig-traffic")
		})
	}
}

// BenchmarkAblationGranularity sweeps the merge factor q: groups of q·r
// projected points trade schedule overlap (Theorem 1 is relaxed) for
// less interblock traffic. Under 1991-era costs coarser grain can win.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, q := range []int64{1, 2, 4} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			var traffic int64
			var makespan float64
			for i := 0; i < b.N; i++ {
				plan, err := NewPlan(NewKernel("matvec", 64), PlanOptions{
					CubeDim:   3,
					Partition: PartitionOptions{MergeFactor: q},
				})
				if err != nil {
					b.Fatal(err)
				}
				traffic = plan.TIG.TotalTraffic()
				s, err := plan.Simulate(machine.Era1991(), SimOptions{})
				if err != nil {
					b.Fatal(err)
				}
				makespan = s.Makespan
			}
			b.ReportMetric(float64(traffic), "tig-traffic")
			b.ReportMetric(makespan, "makespan")
		})
	}
}

// BenchmarkAblationMapping compares Gray, linear, and random mappings
// (A2 in DESIGN.md).
func BenchmarkAblationMapping(b *testing.B) {
	plan := mustPlan(b, "matmul", 10, 4)
	gray, err := plan.EvaluateMapping()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("gray", func(b *testing.B) {
		var hw int64
		for i := 0; i < b.N; i++ {
			m, err := mapping.MapPartitioning(plan.Partitioning, 4, MapOptions{})
			if err != nil {
				b.Fatal(err)
			}
			hw = mapping.Evaluate(plan.TIG, m).HopWeight
		}
		b.ReportMetric(float64(hw), "hop-weight")
	})
	b.Run("linear", func(b *testing.B) {
		var hw int64
		for i := 0; i < b.N; i++ {
			m, err := mapping.Linear(plan.TIG.N, 4)
			if err != nil {
				b.Fatal(err)
			}
			hw = mapping.Evaluate(plan.TIG, m).HopWeight
		}
		b.ReportMetric(float64(hw), "hop-weight")
		if hw < gray.HopWeight {
			b.Fatalf("linear hop-weight %d beat gray %d", hw, gray.HopWeight)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		var hw int64
		for i := 0; i < b.N; i++ {
			m, err := mapping.Greedy(plan.TIG, 4, 2)
			if err != nil {
				b.Fatal(err)
			}
			hw = mapping.Evaluate(plan.TIG, m).HopWeight
		}
		b.ReportMetric(float64(hw), "hop-weight")
	})
	b.Run("random", func(b *testing.B) {
		var hw int64
		for i := 0; i < b.N; i++ {
			m, err := mapping.Random(plan.TIG.N, 4, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			hw = mapping.Evaluate(plan.TIG, m).HopWeight
		}
		b.ReportMetric(float64(hw), "hop-weight")
	})
}

// BenchmarkGrainSweep regenerates the grain-size analysis (A3): the
// comm/comp ratio across problem sizes.
func BenchmarkGrainSweep(b *testing.B) {
	for _, m := range []int64{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = analysis.CommCompRatio(m, 16, machine.Era1991())
			}
			b.ReportMetric(ratio, "comm/comp")
		})
	}
}

// BenchmarkHyperplaneSearch measures the exhaustive optimal-Π search.
func BenchmarkHyperplaneSearch(b *testing.B) {
	k := NewKernel("matmul", 6)
	st, err := k.Structure()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch, err := hyperplane.FindOptimal(st, 2)
		if err != nil {
			b.Fatal(err)
		}
		if !sch.Pi.Equal(Vec(1, 1, 1)) {
			b.Fatalf("unexpected Π %v", sch.Pi)
		}
	}
}

// BenchmarkPartitionScaling measures Algorithm 1 across problem sizes.
func BenchmarkPartitionScaling(b *testing.B) {
	for _, size := range []int64{4, 8, 16} {
		b.Run(fmt.Sprintf("matmul-%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan := mustPlan(b, "matmul", size, -1)
				if err := core.CheckInvariants(plan.Partitioning); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcurrentExecution measures the goroutine/channel executor.
func BenchmarkConcurrentExecution(b *testing.B) {
	for _, kernel := range []string{"matmul", "matvec", "stencil"} {
		b.Run(kernel, func(b *testing.B) {
			plan := mustPlan(b, kernel, 8, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := plan.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParser measures the DSL front end.
func BenchmarkParser(b *testing.B) {
	src := `
for i = 0 to 63
for j = 0 to 63
{
  A[i+1, j+1] = A[i+1, j] + B[i, j]
  B[i+1, j]   = A[i, j] * 2 + C
}
`
	for i := 0; i < b.N; i++ {
		if _, err := ParseKernel("bench", src, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeshVsCubeMapping compares Algorithm 2's two targets.
func BenchmarkMeshVsCubeMapping(b *testing.B) {
	plan := mustPlan(b, "matmul", 10, 4)
	b.Run("cube", func(b *testing.B) {
		var hw int64
		for i := 0; i < b.N; i++ {
			m, err := mapping.MapPartitioning(plan.Partitioning, 4, MapOptions{})
			if err != nil {
				b.Fatal(err)
			}
			hw = mapping.Evaluate(plan.TIG, m).HopWeight
		}
		b.ReportMetric(float64(hw), "hop-weight")
	})
	b.Run("mesh4x4", func(b *testing.B) {
		var hw int64
		for i := 0; i < b.N; i++ {
			m, err := mapping.MapPartitioningMesh(plan.Partitioning, 4, 4, MapOptions{})
			if err != nil {
				b.Fatal(err)
			}
			hw = mapping.EvaluateMesh(plan.TIG, m).HopWeight
		}
		b.ReportMetric(float64(hw), "hop-weight")
	})
}

// BenchmarkAblationLinkContention measures the cost of the contended
// network model and reports the makespan inflation it predicts.
func BenchmarkAblationLinkContention(b *testing.B) {
	plan := mustPlan(b, "matmul", 8, 3)
	params := machine.Params{TCalc: 1, TStart: 10, TComm: 5}
	for _, cont := range []bool{false, true} {
		name := "uncontended"
		if cont {
			name = "contended"
		}
		b.Run(name, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				s, err := plan.Simulate(params, SimOptions{LinkContention: cont})
				if err != nil {
					b.Fatal(err)
				}
				makespan = s.Makespan
			}
			b.ReportMetric(makespan, "makespan")
		})
	}
}

// BenchmarkPrediction measures the closed-form predictor and reports its
// gap to the event simulation.
func BenchmarkPrediction(b *testing.B) {
	plan := mustPlan(b, "matvec", 64, 3)
	params := machine.Era1991()
	s, err := plan.Simulate(params, SimOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var pred float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := analysis.PredictMapped(plan.Partitioning, plan.TIG, plan.Mapping, params)
		pred = pr.Time
	}
	b.ReportMetric(pred, "predicted")
	b.ReportMetric(s.Makespan, "simulated")
}

// BenchmarkPaperScaleMatVec runs the full Table I workload — matvec at
// M = 1024 (one million iterations) on a 32-processor cube — through
// partitioning, mapping, and simulation, asserting the analytic 2W.
func BenchmarkPaperScaleMatVec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plan, err := NewPlan(NewKernel("matvec", 1024), PlanOptions{CubeDim: 5})
		if err != nil {
			b.Fatal(err)
		}
		s, err := plan.Simulate(machine.Era1991(), SimOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if got := s.MaxProcOps / 3 * 2; got != analysis.MatVecCalcOps(1024, 32) {
			b.Fatalf("critical ops %d != analytic %d", got, analysis.MatVecCalcOps(1024, 32))
		}
	}
	b.ReportMetric(1024*1024, "iterations")
}

// BenchmarkSimulatorThroughput measures event-simulation cost per vertex.
func BenchmarkSimulatorThroughput(b *testing.B) {
	plan := mustPlan(b, "matvec", 256, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Simulate(machine.Era1991(), SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(plan.Structure.V)), "vertices")
}

// BenchmarkVertexIndex compares the dense vertex indexes against the
// string-keyed map they replaced, resolving every vertex and one neighbor
// probe per vertex (the partitioner's and simulator's access pattern):
// the stride index on matmul (rectangular) and the row-offset index on
// triangular.
func BenchmarkVertexIndex(b *testing.B) {
	for _, c := range []struct {
		name   string
		kernel string
		size   int64
	}{
		{"", "matmul", 24},                 // 13824 vertices
		{"triangular-", "triangular", 166}, // 13861 vertices
	} {
		st, err := NewKernel(c.kernel, c.size).Structure()
		if err != nil {
			b.Fatal(err)
		}
		d := st.D[0]
		b.Run(c.name+"dense", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sum := 0
				for vi, p := range st.V {
					sum += st.VertexIndex(p) + st.NeighborIndex(vi, d)
				}
				if sum == 0 {
					b.Fatal("index lookups degenerated")
				}
			}
			b.ReportMetric(float64(2*len(st.V)), "lookups/op")
		})
		b.Run(c.name+"map", func(b *testing.B) {
			b.ReportAllocs()
			m := make(map[string]int, len(st.V))
			for i, p := range st.V {
				m[p.Key()] = i
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum := 0
				for _, p := range st.V {
					vi := m[p.Key()]
					ni, ok := m[p.Add(d).Key()]
					if !ok {
						ni = -1
					}
					sum += vi + ni
				}
				if sum == 0 {
					b.Fatal("index lookups degenerated")
				}
			}
			b.ReportMetric(float64(2*len(st.V)), "lookups/op")
		})
	}
}

// BenchmarkSimulate times the simulator on the Table I workload shape —
// matvec on a 32-processor cube — with default options, and on
// triangular at the same size, whose structure uses the row index where
// matvec's uses the rectangular one. One untimed run comes first.
func BenchmarkSimulate(b *testing.B) {
	for _, kernel := range []string{"matvec", "triangular"} {
		b.Run("kernel="+kernel, func(b *testing.B) {
			plan := mustPlan(b, kernel, 512, 5)
			params := machine.Era1991()
			if _, err := plan.Simulate(params, SimOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var makespan float64
			for i := 0; i < b.N; i++ {
				s, err := plan.Simulate(params, SimOptions{})
				if err != nil {
					b.Fatal(err)
				}
				makespan = s.Makespan
			}
			b.ReportMetric(makespan, "makespan")
			b.ReportMetric(float64(plan.Structure.Len()), "vertices")
		})
	}
}

// BenchmarkSweepFanOut measures the Remap-based sweep unit — clone the
// mapping phase and simulate — against rebuilding the whole plan, the
// savings cmd/sweep's parallel fan-out multiplies across its grid.
func BenchmarkSweepFanOut(b *testing.B) {
	base := mustPlan(b, "matvec", 128, -1)
	params := machine.Era1991()
	b.Run("remap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan, err := base.Remap(3)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plan.Simulate(params, SimOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan := mustPlan(b, "matvec", 128, 3)
			if _, err := plan.Simulate(params, SimOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// missGridKey is one kernel and size of the miss-path benchmarks' grid.
type missGridKey struct {
	kernel string
	size   int64
}

// missGridKeys is the grid of the miss-path benchmarks: 2-D kernels at
// size 32 and 3-D kernels at size 12.
func missGridKeys() []missGridKey { return missGridKernels(32, 12) }

// missGridKernels is every kernel of the miss-cold grid, the 2-D ones at
// size2 and the 3-D ones at size3.
func missGridKernels(size2, size3 int64) []missGridKey {
	var grid []missGridKey
	for _, k := range []string{"convolution", "dct", "l1", "matvec", "stencil", "triangular"} {
		grid = append(grid, missGridKey{k, size2})
	}
	for _, k := range []string{"closure", "matmul", "sor2d"} {
		grid = append(grid, missGridKey{k, size3})
	}
	return grid
}

// BenchmarkStageBuild times one Π-stage build as the daemon runs it on a
// stage-cache miss: PrepareCtx (the counted structure, the schedule, the
// projection and Algorithm 1's inputs) for each miss-grid kernel at the
// grid's largest sizes, 2-D 128 and 3-D 16. ns/op, B/op and allocs/op
// are per stage.
func BenchmarkStageBuild(b *testing.B) {
	ctx := context.Background()
	for _, g := range missGridKernels(128, 16) {
		k := NewKernel(g.kernel, g.size)
		b.Run(fmt.Sprintf("%s/%d", g.kernel, g.size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PrepareCtx(ctx, k, PlanOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanMissGrid measures the planner's cold path, as a plan-cache
// miss runs it: one op is NewPlanCtx over a fixed grid of kernel × size ×
// merge factor (missGridKeys, merge 1 and 3, mapped onto a 3-cube).
// ms/plan is the mean over the grid's plans. The plan+summary case also
// renders Plan.Summary, the costliest part of building a plan response.
// The shared-stages case builds one Stage per grid key and runs only
// Stage.PlanCtx per merge factor, as the daemon does on a stage hit; its
// retained-B/stage is the live heap one stage pins.
func BenchmarkPlanMissGrid(b *testing.B) {
	grid := missGridKeys()
	merges := []int64{1, 3}
	ctx := context.Background()
	for _, summary := range []bool{false, true} {
		name := "plan"
		if summary {
			name = "plan+summary"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, g := range grid {
					k := NewKernel(g.kernel, g.size)
					for _, m := range merges {
						opt := PlanOptions{CubeDim: 3, Partition: PartitionOptions{MergeFactor: m}}
						plan, err := NewPlanCtx(ctx, k, opt)
						if err != nil {
							b.Fatalf("%s/%d merge %d: %v", g.kernel, g.size, m, err)
						}
						if summary && plan.Summary() == "" {
							b.Fatal("empty summary")
						}
					}
				}
			}
			plans := float64(b.N * len(grid) * len(merges))
			b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/plans, "ms/plan")
		})
	}
	b.Run("shared-stages", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range grid {
				st, err := PrepareCtx(ctx, NewKernel(g.kernel, g.size), PlanOptions{})
				if err != nil {
					b.Fatalf("%s/%d: %v", g.kernel, g.size, err)
				}
				for _, m := range merges {
					opt := PlanOptions{CubeDim: 3, Partition: PartitionOptions{MergeFactor: m}}
					if _, err := st.PlanCtx(ctx, opt); err != nil {
						b.Fatalf("%s/%d merge %d: %v", g.kernel, g.size, m, err)
					}
				}
			}
		}
		plans := float64(b.N * len(grid) * len(merges))
		b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/plans, "ms/plan")
		// retained-B/stage is the live heap one PrepareCtx stage pins, as
		// the daemon's plan cache keeps it (no vertex set): per grid key, the projection,
		// its index and line graph, and Algorithm 1's inputs.
		b.StopTimer()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		kept := make([]*Stage, len(grid))
		for i, g := range grid {
			st, err := PrepareCtx(ctx, NewKernel(g.kernel, g.size), PlanOptions{})
			if err != nil {
				b.Fatalf("%s/%d: %v", g.kernel, g.size, err)
			}
			kept[i] = st
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(len(kept)), "retained-B/stage")
		runtime.KeepAlive(kept)
	})
	// The tig and map cases time the TIG build and Algorithm 2 alone on
	// shared stages: every grid key partitioned at merge factors 1–10,
	// aux on and off, and each partitioning mapped onto cubes of
	// dimension 2–4. µs/plan is the mean per call, and retained-B/tig the
	// live heap one TIG pins.
	var parts []*core.Partitioning
	for _, g := range grid {
		st, err := PrepareCtx(ctx, NewKernel(g.kernel, g.size), PlanOptions{})
		if err != nil {
			b.Fatalf("%s/%d: %v", g.kernel, g.size, err)
		}
		for m := int64(1); m <= 10; m++ {
			for _, noAux := range []bool{false, true} {
				p, err := core.PartitionCtx(ctx, st.Projected, core.Options{MergeFactor: m, NoAux: noAux})
				if err != nil {
					b.Fatalf("%s/%d merge %d: %v", g.kernel, g.size, m, err)
				}
				parts = append(parts, p)
			}
		}
	}
	b.Run("tig", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range parts {
				core.BuildTIG(p)
			}
		}
		b.ReportMetric(float64(b.Elapsed())/float64(time.Microsecond)/float64(b.N*len(parts)), "µs/plan")
		b.StopTimer()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		kept := make([]*core.TIG, len(parts))
		for i, p := range parts {
			kept[i] = core.BuildTIG(p)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(len(kept)), "retained-B/tig")
		runtime.KeepAlive(kept)
	})
	dims := []int{2, 3, 4}
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range parts {
				for _, d := range dims {
					if _, err := mapping.MapPartitioning(p, d, mapping.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed())/float64(time.Microsecond)/float64(b.N*len(parts)*len(dims)), "µs/plan")
	})
}

// BenchmarkPartitionMissGrid measures Algorithm 1 alone on the grid of
// BenchmarkPlanMissGrid: one op partitions every kernel's projected
// structure at merge factors 1 and 3, from one core.Stage per structure,
// as a Stage's plans share it. ms/partition is the mean per call, and
// retained-B/partition the live heap one partitioning pins.
func BenchmarkPartitionMissGrid(b *testing.B) {
	merges := []int64{1, 3}
	var structs []*core.Stage
	for _, g := range missGridKeys() {
		plan, err := NewPlan(NewKernel(g.kernel, g.size), PlanOptions{CubeDim: -1})
		if err != nil {
			b.Fatalf("%s/%d: %v", g.kernel, g.size, err)
		}
		structs = append(structs, core.NewStage(plan.Projected))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range structs {
			for _, m := range merges {
				if _, err := st.PartitionCtx(ctx, core.Options{MergeFactor: m}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	calls := float64(b.N * len(structs) * len(merges))
	b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/calls, "ms/partition")

	// Retained bytes: the live heap that one more pass over the grid
	// leaves after a GC, per partitioning kept.
	b.StopTimer()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := make([]*core.Partitioning, 0, len(structs)*len(merges))
	for _, st := range structs {
		for _, m := range merges {
			p, err := st.PartitionCtx(ctx, core.Options{MergeFactor: m})
			if err != nil {
				b.Fatal(err)
			}
			kept = append(kept, p)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(len(kept)), "retained-B/partition")
	runtime.KeepAlive(kept)
}
