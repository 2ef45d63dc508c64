// Command experiments regenerates every table and figure of the paper and
// prints paper-vs-measured comparisons (the data behind EXPERIMENTS.md).
//
// Usage:
//
//	experiments -e all            # run everything
//	experiments -e table1         # one experiment: fig1 fig3 fig5 fig7
//	                              # fig8 fig9 table1 ablate mapablate grain
//	experiments -list             # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	loopmap "repro"
	"repro/internal/analysis"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hyperplane"
	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/vec"
)

type experiment struct {
	name  string
	title string
	run   func() string
}

func experimentsList() []experiment {
	return []experiment{
		{"fig1", "Fig. 1 — computational structure and hyperplanes of loop L1", fig1},
		{"fig3", "Fig. 3 — projected structure and grouping of loop L1", fig3},
		{"fig5", "Fig. 5 — projected structure of 4×4×4 matrix multiplication", fig5},
		{"fig7", "Figs. 6–7 — grouping and TIG of matrix multiplication", fig7},
		{"fig8", "Fig. 8 — mapping a 4×4 mesh TIG onto a 3-cube", fig8},
		{"fig9", "Fig. 9 — computational structure of matvec (L5)", fig9},
		{"table1", "Table I — T_exec(N) for matvec, M = 1024", table1},
		{"ablate", "Ablation — partitioning vs. baseline methods", ablate},
		{"mapablate", "Ablation — Gray-code mapping vs. linear and random", mapablate},
		{"grain", "Extension — grain-size sweep of comm/comp ratio", grain},
		{"mesh", "Extension — mapping onto 2-D meshes vs. hypercubes", meshExp},
		{"granularity", "Ablation — merge factor: coarser groups vs. Theorem 1", granularity},
		{"verify", "Functional verification — concurrent vs. sequential execution", verifyExp},
		{"faults", "Extension — failure sweep: crashes, checkpoints, degraded cubes", faultsExp},
	}
}

func main() {
	var (
		which  = flag.String("e", "all", "experiment to run (or 'all')")
		list   = flag.Bool("list", false, "list experiments and exit")
		faults = flag.Bool("faults", false, "run the small fault-injection smoke sweep and exit")
	)
	flag.Parse()
	exps := experimentsList()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.name, e.title)
		}
		return
	}
	if *faults {
		// CI smoke mode: a laptop-friendly sweep that exercises the whole
		// fault path (crash, checkpoint, replay, degraded remap) and exits
		// non-zero on any failure.
		fmt.Println(faultSweep(64, 3))
		return
	}
	var sel []experiment
	for _, e := range exps {
		if *which == "all" || e.name == *which {
			sel = append(sel, e)
		}
	}
	if len(sel) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *which)
		os.Exit(1)
	}
	// Experiments are independent: fan them out over the worker pool and
	// print the collected sections in the original order.
	outputs := pool.Map(len(sel), func(i int) string { return sel[i].run() })
	for i, e := range sel {
		fmt.Printf("=== %s: %s ===\n", e.name, e.title)
		fmt.Println(outputs[i])
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func pv(b *strings.Builder, what string, paper, measured interface{}) {
	match := "OK"
	if fmt.Sprint(paper) != fmt.Sprint(measured) {
		match = "DIFFERS"
	}
	fmt.Fprintf(b, "  %-52s paper=%-14v measured=%-14v %s\n", what, paper, measured, match)
}

func fig1() string {
	plan, err := loopmap.NewPlan(loopmap.NewKernel("l1", 3), loopmap.PlanOptions{CubeDim: -1})
	check(err)
	var b strings.Builder
	pv(&b, "index points", 16, plan.Structure.Len())
	pv(&b, "dependence vectors", "[(0, 1) (1, 0) (1, 1)]", fmt.Sprint(plan.Structure.D))
	pv(&b, "hyperplanes i+j=0..6 (steps)", 7, plan.Schedule.Steps())
	sizes := hyperplane.WavefrontSizes(plan.Structure, plan.Schedule)
	pv(&b, "wavefront sizes", "[1 2 3 4 3 2 1]", fmt.Sprint(sizes))
	b.WriteString("\n  execution step of each iteration (i down, j right):\n")
	grid := report.Grid2D(plan.Structure.Vertices(), func(p vec.Int) string {
		return fmt.Sprint(plan.Schedule.Step(p))
	})
	b.WriteString(indent(grid, "    "))
	return b.String()
}

func fig3() string {
	plan, err := loopmap.NewPlan(loopmap.NewKernel("l1", 3), loopmap.PlanOptions{CubeDim: -1})
	check(err)
	var b strings.Builder
	pv(&b, "projected points", 7, plan.Projected.NumPoints())
	pv(&b, "group size r", 2, plan.Partitioning.R)
	pv(&b, "groups/blocks", 4, plan.Partitioning.NumBlocks())
	es := plan.TIG.EdgeStats()
	pv(&b, "data dependencies", 33, es.Total)
	pv(&b, "interblock dependencies", 12, es.InterBlock)
	b.WriteString("\n  block of each iteration (i down, j right):\n")
	grid := report.Grid2D(plan.Structure.Vertices(), func(p vec.Int) string {
		return fmt.Sprintf("B%d", plan.Partitioning.BlockOfPoint(p))
	})
	b.WriteString(indent(grid, "    "))
	b.WriteString("\n  projected points (rational coordinates):\n")
	for i := range plan.Projected.NumPoints() {
		fmt.Fprintf(&b, "    v%d = %v  (%d index points on its line)\n",
			i, plan.Projected.RatPoint(i), plan.Projected.Fibers[i].Len)
	}
	return b.String()
}

func fig5() string {
	plan, err := loopmap.NewPlan(loopmap.NewKernel("matmul", 4), loopmap.PlanOptions{CubeDim: -1})
	check(err)
	var b strings.Builder
	pv(&b, "projected points", 37, plan.Projected.NumPoints())
	pv(&b, "scale s = Π·Π", 3, plan.Projected.S)
	for _, d := range plan.Projected.Deps {
		pv(&b, fmt.Sprintf("projected dep of %v", d.Orig), "r=3", fmt.Sprintf("r=%d", d.R))
		fmt.Fprintf(&b, "    d^p = %v (scaled %v)\n", d.Rat(plan.Projected.S), d.Scaled)
	}
	pv(&b, "rank(mat(D^p)) = β", 2, plan.Partitioning.Beta)
	return b.String()
}

func fig7() string {
	plan, err := loopmap.NewPlan(loopmap.NewKernel("matmul", 4), loopmap.PlanOptions{CubeDim: -1})
	check(err)
	var b strings.Builder
	pv(&b, "groups", 17, plan.Partitioning.NumBlocks())
	pv(&b, "group size r", 3, plan.Partitioning.R)
	pv(&b, "auxiliary grouping vectors", 1, len(plan.Partitioning.Aux))
	pv(&b, "Theorem 2 bound 2m−β", 4, core.Theorem2Bound(plan.Partitioning))
	pv(&b, "max out-degree (tight, cf. G10)", 4, plan.TIG.MaxOutDegree())

	// Seeding at the paper's Step 3 choice reproduces its exact grouping:
	// G1 = {(-1,-1,2), (-4/3,-1/3,5/3), (-5/3,1/3,4/3)} (scaled by 3).
	// The kernel lists its dependences as (d_C, d_A, d_B); choice 2 forces
	// the paper's arbitrary pick of d_A as the grouping vector.
	seeded, err := loopmap.NewPlan(loopmap.NewKernel("matmul", 4), loopmap.PlanOptions{
		CubeDim:   -1,
		Partition: loopmap.PartitionOptions{GroupingChoice: 2, SeedBase: vec.NewInt(-3, -3, 6)},
	})
	check(err)
	g1 := "missing"
	sp := seeded.Partitioning
	for g := range sp.NumBlocks() {
		if sp.Base(g).Equal(vec.NewInt(-3, -3, 6)) && len(sp.Members(g)) == 3 {
			g1 = "{(-1,-1,2) (-4/3,-1/3,5/3) (-5/3,1/3,4/3)}"
		}
	}
	pv(&b, "seeded grouping reproduces the paper's G1", "{(-1,-1,2) (-4/3,-1/3,5/3) (-5/3,1/3,4/3)}", g1)
	pv(&b, "seeded grouping group count", 17, seeded.Partitioning.NumBlocks())
	b.WriteString("\n  TIG adjacency (block: successors):\n")
	for g := 0; g < plan.TIG.N; g++ {
		succ := plan.TIG.Successors(g)
		if len(succ) == 0 {
			continue
		}
		fmt.Fprintf(&b, "    G%-2d -> %v\n", g, succ)
	}
	return b.String()
}

func fig8() string {
	// The synthetic 4×4 mesh TIG of Example 3 onto a 3-cube.
	var items []mapping.Item
	for y := int32(0); y < 4; y++ {
		for x := int32(0); x < 4; x++ {
			items = append(items, mapping.Item{ID: int(4*y + x), Coords: []int32{x, y}})
		}
	}
	res, err := mapping.MapItems(items, 3, mapping.Options{})
	check(err)
	var b strings.Builder
	pv(&b, "clusters", 8, len(res.Clusters))
	pv(&b, "bisections per axis (p_i)", "[2 1]", fmt.Sprint(res.BitsPerAxis))
	allPairs := true
	for _, cl := range res.Clusters {
		if len(cl) != 2 {
			allPairs = false
		}
	}
	pv(&b, "blocks per cluster", "2", map[bool]string{true: "2", false: "uneven"}[allPairs])
	b.WriteString("\n  node : blocks (mesh ids y*4+x)\n")
	for node, cl := range res.Clusters {
		fmt.Fprintf(&b, "    %03b : %v\n", node, cl)
	}
	// Dilation of mesh edges.
	maxDil := 0
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			id := 4*y + x
			for _, nb := range []int{id + 1, id + 4} {
				if (nb == id+1 && x == 3) || (nb == id+4 && y == 3) {
					continue
				}
				if d := res.Cube.Distance(res.NodeOf[id], res.NodeOf[nb]); d > maxDil {
					maxDil = d
				}
			}
		}
	}
	pv(&b, "max dilation of mesh edges", "1", fmt.Sprint(maxDil))
	return b.String()
}

func fig9() string {
	plan, err := loopmap.NewPlan(loopmap.NewKernel("matvec", 4), loopmap.PlanOptions{CubeDim: -1})
	check(err)
	var b strings.Builder
	pv(&b, "dependence vectors", "[(0, 1) (1, 0)]", fmt.Sprint(plan.Structure.D))
	pv(&b, "projected points (2M−1)", 7, plan.Projected.NumPoints())
	pv(&b, "blocks (M)", 4, plan.Partitioning.NumBlocks())
	b.WriteString("\n  block of each iteration (i down, j right):\n")
	grid := report.Grid2D(plan.Structure.Vertices(), func(p vec.Int) string {
		return fmt.Sprintf("B%d", plan.Partitioning.BlockOfPoint(p))
	})
	b.WriteString(indent(grid, "    "))
	return b.String()
}

func table1() string {
	const m = 1024
	var b strings.Builder
	paperCalc := map[int64]int64{1: 2097152, 4: 786944, 16: 245888, 64: 64544, 256: 16328, 1024: 4094}
	rows := analysis.TableI(m, analysis.PaperTableISizes)
	tb := report.NewTable("N", "paper t_calc coeff", "measured t_calc coeff", "paper comm coeff", "measured comm coeff", "match")
	for _, r := range rows {
		wantComm := int64(2046)
		if r.N == 1 {
			wantComm = 0
		}
		match := "OK"
		if paperCalc[r.N] != r.CalcCoeff || wantComm != r.CommCoeff {
			match = "DIFFERS"
		}
		tb.AddRow(r.N, paperCalc[r.N], r.CalcCoeff, wantComm, r.CommCoeff, match)
	}
	b.WriteString(indent(tb.String(), "  "))

	// Cross-check the W formula against the real partitioning pipeline at a
	// laptop-friendly size, and show the event simulation's view. The
	// enumeration and Algorithm 1 run once; the cube dims share them via
	// Remap and simulate in parallel.
	b.WriteString("\n  cross-check at M = 256 via partition+map+simulate (Era1991 params):\n")
	tb2 := report.NewTable("N", "analytic 2W", "sim critical ops/3*2", "sim in+out words", "2(M-1)", "sim makespan")
	const mm = 256
	base, err := loopmap.NewPlan(loopmap.NewKernel("matvec", mm), loopmap.PlanOptions{CubeDim: -1})
	check(err)
	dims := []int{1, 2, 3, 4, 5}
	sims, err := pool.MapErr(len(dims), func(i int) (*loopmap.SimStats, error) {
		plan, err := base.Remap(dims[i])
		if err != nil {
			return nil, err
		}
		return plan.Simulate(machine.Era1991(), loopmap.SimOptions{})
	})
	check(err)
	for i, dim := range dims {
		n := int64(1) << uint(dim)
		s := sims[i]
		// Kernel ops per point is 3 (x-pipe + 2-op y-acc); the paper counts
		// 2 flops per point, so scale 3W -> 2W for comparison.
		tb2.AddRow(n, analysis.MatVecCalcOps(mm, n), s.MaxProcOps/3*2, s.CriticalInOutWords(), 2*(mm-1), s.Makespan)
	}
	b.WriteString(indent(tb2.String(), "  "))

	// Full paper scale: M = 1024 on a 32-processor cube, through the real
	// pipeline (one million iterations).
	planFull, err := loopmap.NewPlan(loopmap.NewKernel("matvec", m), loopmap.PlanOptions{CubeDim: 5})
	check(err)
	sFull, err := planFull.Simulate(machine.Era1991(), loopmap.SimOptions{})
	check(err)
	b.WriteString("\n")
	pv(&b, "M=1024, N=32: critical ops (2W scale)", analysis.MatVecCalcOps(m, 32), sFull.MaxProcOps/3*2)
	pv(&b, "M=1024, N=32: blocks", 1024, planFull.Partitioning.NumBlocks())

	b.WriteString("\n  note: the paper charges the critical processor only its main-diagonal\n" +
		"  cut, 2(M-1) words; the event simulation also counts the processor's\n" +
		"  opposite cut, so its in+out words lie in [2(M-1), 4(M-1)) and stay\n" +
		"  bounded as N grows while computation shrinks — the paper's claim.\n")
	return b.String()
}

func ablate() string {
	var b strings.Builder
	params := machine.Era1991()
	for _, name := range []string{"matmul", "matvec", "stencil"} {
		size := int64(16)
		if name == "matmul" {
			size = 8
		}
		plan, err := loopmap.NewPlan(loopmap.NewKernel(name, size), loopmap.PlanOptions{CubeDim: -1})
		check(err)
		st := plan.Structure
		paper := baselines.FromPartitioning("paper-grouping", plan.Partitioning.BlockOf(), plan.Partitioning.NumBlocks())
		lines := baselines.LinePerBlock(plan.Projected)
		indep, err := baselines.Independent(st)
		check(err)
		rr, err := baselines.RoundRobin(st, plan.Partitioning.NumBlocks())
		check(err)

		coarse := machine.Params{TCalc: 50, TStart: 2, TComm: 1}
		fmt.Fprintf(&b, "  kernel %s (%d iterations):\n", name, st.Len())
		tb := report.NewTable("method", "blocks", "interblock/total deps", "max load",
			"makespan fine-grain (Era1991)", "makespan coarse-grain")
		for _, bl := range []*baselines.Blocks{paper, lines, indep, rr} {
			es := bl.EdgeStats(st)
			a := sim.Assignment{ProcOf: bl.Of, NumProcs: bl.N}
			s, err := sim.Simulate(st, plan.Schedule, a, params, sim.Options{})
			check(err)
			sc, err := sim.Simulate(st, plan.Schedule, a, coarse, sim.Options{})
			check(err)
			tb.AddRow(bl.Name, bl.N, fmt.Sprintf("%d/%d", es.InterBlock, es.Total), bl.MaxLoad(), s.Makespan, sc.Makespan)
		}
		b.WriteString(indent(tb.String(), "  "))
		b.WriteByte('\n')
	}
	b.WriteString("  independent partitioning collapses to 1 block (sequential) on the\n" +
		"  paper kernels — the motivating observation of §I. (stencil's lattice\n" +
		"  spans Z^2 as well; its determinant is 1.) Under the 1991-era costs\n" +
		"  these toy sizes are fine-grain, so the single sequential block can\n" +
		"  win outright; once computation dominates (coarse-grain column) the\n" +
		"  paper's grouping wins and line-per-block pays for its extra traffic\n" +
		"  — the paper's medium-to-coarse-grain suitability claim.\n")
	return b.String()
}

func mapablate() string {
	var b strings.Builder
	for _, dim := range []int{3, 4, 5} {
		plan, err := loopmap.NewPlan(loopmap.NewKernel("matmul", 10), loopmap.PlanOptions{CubeDim: dim})
		check(err)
		gray, err := plan.EvaluateMapping()
		check(err)
		lin, err := mapping.Linear(plan.TIG.N, dim)
		check(err)
		linStats := mapping.Evaluate(plan.TIG, lin)
		var rndHop int64
		const seeds = 5
		for s := int64(0); s < seeds; s++ {
			rnd, err := mapping.Random(plan.TIG.N, dim, s)
			check(err)
			rndHop += mapping.Evaluate(plan.TIG, rnd).HopWeight
		}
		greedy, err := mapping.Greedy(plan.TIG, dim, 2)
		check(err)
		greedyStats := mapping.Evaluate(plan.TIG, greedy)
		tb := report.NewTable("mapping", "hop-weight", "max dilation")
		tb.AddRow("gray (Algorithm 2)", gray.HopWeight, gray.MaxDilation)
		tb.AddRow("greedy list-placement", greedyStats.HopWeight, greedyStats.MaxDilation)
		tb.AddRow("linear", linStats.HopWeight, linStats.MaxDilation)
		tb.AddRow(fmt.Sprintf("random (mean of %d)", seeds), rndHop/seeds, "-")
		fmt.Fprintf(&b, "  matmul size 10 on a %d-cube:\n", dim)
		b.WriteString(indent(tb.String(), "  "))
		b.WriteByte('\n')
	}
	return b.String()
}

func grain() string {
	var b strings.Builder
	params := machine.Era1991()
	b.WriteString("  comm/comp ratio of the critical processor (analytic, N = 16):\n")
	var labels []string
	var vals []float64
	for _, m := range []int64{64, 128, 256, 512, 1024, 2048, 4096} {
		labels = append(labels, fmt.Sprintf("M=%d", m))
		vals = append(vals, analysis.CommCompRatio(m, 16, params))
	}
	b.WriteString(indent(report.Histogram(labels, vals, 48), "  "))
	b.WriteString("\n  speedup and efficiency at M = 1024 (Era1991 parameters):\n")
	tb := report.NewTable("N", "T_exec", "speedup", "efficiency")
	for _, n := range analysis.PaperTableISizes {
		tb.AddRow(n, analysis.MatVecExecTime(1024, n, params),
			analysis.Speedup(1024, n, params), analysis.Efficiency(1024, n, params))
	}
	b.WriteString(indent(tb.String(), "  "))
	return b.String()
}

func meshExp() string {
	// The paper maps only onto hypercubes; the conclusion frames other
	// topologies as applications of the same cluster formation. Compare
	// hypercubes against equal-size 2-D meshes.
	var b strings.Builder
	params := machine.Era1991()
	tb := report.NewTable("machine", "procs", "hop-weight", "max dilation", "sim makespan")
	for _, cfg := range []struct {
		dim        int
		rows, cols int
	}{
		{3, 2, 4},
		{4, 4, 4},
		{5, 4, 8},
	} {
		plan, err := loopmap.NewPlan(loopmap.NewKernel("matmul", 10), loopmap.PlanOptions{CubeDim: cfg.dim})
		check(err)
		cube, err := plan.EvaluateMapping()
		check(err)
		cs, err := plan.Simulate(params, loopmap.SimOptions{})
		check(err)
		tb.AddRow(fmt.Sprintf("%d-cube", cfg.dim), 1<<uint(cfg.dim), cube.HopWeight, cube.MaxDilation, cs.Makespan)

		_, ms, err := plan.MapOntoMesh(cfg.rows, cfg.cols)
		check(err)
		mss, err := plan.SimulateMesh(cfg.rows, cfg.cols, params, loopmap.SimOptions{})
		check(err)
		tb.AddRow(fmt.Sprintf("%dx%d mesh", cfg.rows, cfg.cols), cfg.rows*cfg.cols, ms.HopWeight, ms.MaxDilation, mss.Makespan)
	}
	b.WriteString(indent(tb.String(), "  "))
	b.WriteString("  the hypercube's richer wiring keeps hop-weight at or below the\n" +
		"  equal-size mesh; the bisection clusters themselves are identical.\n")
	return b.String()
}

func granularity() string {
	// Sweep the merge factor q: groups of q·r projected points trade the
	// Theorem 1 distinct-step property for less interblock traffic.
	var b strings.Builder
	tb := report.NewTable("q", "blocks", "TIG traffic", "makespan (Era1991)", "makespan (compute-bound)")
	coarse := machine.Params{TCalc: 50, TStart: 2, TComm: 1}
	for _, q := range []int64{1, 2, 4, 8} {
		plan, err := loopmap.NewPlan(loopmap.NewKernel("matvec", 64), loopmap.PlanOptions{
			CubeDim:   3,
			Partition: loopmap.PartitionOptions{MergeFactor: q},
		})
		check(err)
		s1, err := plan.Simulate(machine.Era1991(), loopmap.SimOptions{})
		check(err)
		s2, err := plan.Simulate(coarse, loopmap.SimOptions{})
		check(err)
		tb.AddRow(q, plan.Partitioning.NumBlocks(), plan.TIG.TotalTraffic(), s1.Makespan, s2.Makespan)
	}
	b.WriteString(indent(tb.String(), "  "))
	b.WriteString("  q = 1 is the paper's exact grouping (Theorem 1 holds); larger q\n" +
		"  halves the traffic per doubling and wins under startup-dominated\n" +
		"  1991 costs, but loses schedule overlap — visible on the\n" +
		"  compute-bound machine where the paper's exact r is best.\n")
	return b.String()
}

func verifyExp() string {
	// Execute every kernel on goroutine-processors under the paper's
	// partitioning+mapping and compare the complete dataflow trace against
	// sequential execution.
	var b strings.Builder
	tb := report.NewTable("kernel", "points", "procs", "messages", "result")
	type job struct {
		name string
		dim  int
	}
	var jobs []job
	for _, name := range loopmap.KernelNames() {
		for _, dim := range []int{2, 3} {
			jobs = append(jobs, job{name, dim})
		}
	}
	type row struct {
		points, procs int
		messages      int64
		status        string
	}
	rows, err := pool.MapErr(len(jobs), func(i int) (row, error) {
		plan, err := loopmap.NewPlan(loopmap.NewKernel(jobs[i].name, 6), loopmap.PlanOptions{CubeDim: jobs[i].dim})
		if err != nil {
			return row{}, err
		}
		_, stats, err := plan.Execute()
		if err != nil {
			return row{}, err
		}
		status := "OK"
		if err := plan.Verify(); err != nil {
			status = err.Error()
		}
		return row{plan.Structure.Len(), plan.Procs(), stats.Messages, status}, nil
	})
	check(err)
	for i, j := range jobs {
		tb.AddRow(j.name, rows[i].points, rows[i].procs, rows[i].messages, rows[i].status)
	}
	b.WriteString(indent(tb.String(), "  "))
	return b.String()
}

func faultsExp() string {
	// The paper's running configuration: matvec on a 5-cube (32 nodes).
	return faultSweep(256, 5)
}

// faultSweep reports what failures cost a mapped matvec plan: permanent
// node deaths handled by degraded-cube remapping, and mid-run crashes
// handled by checkpoint/restart, swept over the checkpoint interval.
func faultSweep(size int64, dim int) string {
	var b strings.Builder
	plan, err := loopmap.NewPlan(loopmap.NewKernel("matvec", size), loopmap.PlanOptions{CubeDim: dim})
	check(err)
	params := machine.Era1991()
	base, err := plan.Simulate(params, loopmap.SimOptions{})
	check(err)
	fmt.Fprintf(&b, "  matvec M=%d on a %d-cube, fault-free makespan %.0f (Era1991, block engine)\n\n",
		size, dim, base.Makespan)

	// Dead-before-start nodes: RemapDegraded migrates their blocks to the
	// nearest survivors (Gray-code adjacency keeps it to one hop).
	b.WriteString("  degraded cube (nodes dead before the run):\n")
	tb := report.NewTable("failed nodes", "migrated blocks", "max migration hops", "extra hop-words", "makespan inflation")
	for _, failed := range [][]int{{0}, {0, 3}} {
		_, stats, err := plan.RemapDegraded(failed)
		check(err)
		tb.AddRow(fmt.Sprint(failed), stats.MigratedBlocks, stats.MaxMigrationHops,
			stats.ExtraHopWords, fmt.Sprintf("%.3f", stats.MakespanInflation))
	}
	b.WriteString(indent(tb.String(), "  "))

	// Mid-run crashes under checkpoint/restart: inflation vs checkpoint
	// interval. Interval 0 means no checkpoints — a crash replays every
	// operation the dead node had completed.
	ckptCost := params.TStart
	restartCost := 4 * params.TStart
	crash1 := []loopmap.NodeCrash{{Node: 1, T: base.Makespan * 0.5}}
	crash2 := []loopmap.NodeCrash{{Node: 1, T: base.Makespan * 0.5}, {Node: 2, T: base.Makespan * 0.25}}
	b.WriteString("\n  mid-run crashes with checkpoint/restart (inflation = makespan/fault-free):\n")
	tb2 := report.NewTable("ckpt interval (steps)", "1-crash inflation", "1-crash ckpt+replay", "2-crash inflation", "2-crash ckpt+replay")
	for _, every := range []int{0, 1, 2, 4, 8, 16} {
		row := []interface{}{every}
		for _, crashes := range [][]loopmap.NodeCrash{crash1, crash2} {
			sch := &loopmap.FaultSchedule{
				Crashes: crashes,
				Checkpoint: loopmap.CheckpointPolicy{
					EverySteps: every, RestartCost: restartCost,
				},
			}
			if every > 0 {
				sch.Checkpoint.Cost = ckptCost
			}
			s, err := plan.Simulate(params, loopmap.SimOptions{Faults: sch})
			check(err)
			row = append(row, fmt.Sprintf("%.3f", s.Makespan/base.Makespan),
				fmt.Sprintf("%.0f", s.CheckpointTime+s.ReplayTime))
		}
		tb2.AddRow(row...)
	}
	b.WriteString(indent(tb2.String(), "  "))
	b.WriteString("  checkpoints charge every dirty processor each interval, so short\n" +
		"  intervals tax the whole machine to bound replay on a crash, while no\n" +
		"  checkpointing replays the dead node's whole prefix. Which side wins\n" +
		"  depends on how much work a crash strands relative to t_start.\n")
	return b.String()
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pre + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
