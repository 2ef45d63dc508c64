// Command sweep generates the data series behind the paper's evaluation as
// CSV, for plotting or regression against other implementations.
//
// Configurations fan out over a worker pool sized to the machine (override
// with -workers); rows are always emitted in deterministic order. Within a
// sweep the enumerated structure, schedule, and partitioning are computed
// once per (kernel, size) and remapped per cube dimension.
//
// Usage:
//
//	sweep -s exectime                  # T_exec(M, N): analytic + simulated
//	sweep -s grain                     # comm/comp ratio over M for several N
//	sweep -s mapping                   # hop-weight of gray/linear/random over cube dims
//	sweep -s speedup -tstart 10        # speedup/efficiency curves
//	sweep -list
package main

import (
	"flag"
	"fmt"
	"os"

	loopmap "repro"
	"repro/internal/analysis"
	"repro/internal/machine"
	"repro/internal/mapping"
	"repro/internal/pool"
	"repro/internal/report"
)

// cfg carries the flag settings into the series generators.
type cfg struct {
	params  machine.Params
	workers int
}

func main() {
	var (
		series  = flag.String("s", "exectime", "series to generate")
		list    = flag.Bool("list", false, "list series and exit")
		tcalc   = flag.Float64("tcalc", 1, "time per floating-point operation")
		tstart  = flag.Float64("tstart", 100, "message startup time")
		tcomm   = flag.Float64("tcomm", 10, "per-word transmission time")
		workers = flag.Int("workers", 0, "worker pool size (0 = one per CPU)")
	)
	flag.Parse()
	c := cfg{
		params:  machine.Params{TCalc: *tcalc, TStart: *tstart, TComm: *tcomm},
		workers: *workers,
	}
	if err := c.params.Validate(); err != nil {
		fail(err)
	}

	gens := map[string]func(cfg) *report.Table{
		"exectime": execTime,
		"grain":    grain,
		"mapping":  mappingSweep,
		"speedup":  speedup,
	}
	if *list {
		for name := range gens {
			fmt.Println(name)
		}
		return
	}
	gen, ok := gens[*series]
	if !ok {
		fail(fmt.Errorf("unknown series %q; use -list", *series))
	}
	gen(c).CSV(os.Stdout)
}

// execTime sweeps T_exec over problem and machine sizes: the analytic §IV
// model next to the event simulation through the real pipeline. Base plans
// (structure, schedule, Algorithm 1) are built once per M in parallel;
// the (M, cube-dim) simulations then fan out over the pool, reusing the
// base plan of their M via Remap.
func execTime(c cfg) *report.Table {
	ms := []int64{32, 64, 128, 256}

	basePlans, err := pool.MapErr(len(ms), func(i int) (*loopmap.Plan, error) {
		return loopmap.NewPlan(loopmap.NewKernel("matvec", ms[i]), loopmap.PlanOptions{CubeDim: -1})
	})
	if err != nil {
		fail(err)
	}

	type job struct {
		mi, dim int
	}
	var jobs []job
	for mi, m := range ms {
		for dim := 0; dim <= 5; dim++ {
			if int64(1)<<uint(dim) > m {
				break
			}
			jobs = append(jobs, job{mi: mi, dim: dim})
		}
	}
	type row struct {
		m, n               int64
		analytic, makespan float64
		critOps, critWords int64
	}
	rows := make([]row, len(jobs))
	errs := make([]error, len(jobs))
	pool.Run(len(jobs), c.workers, func(i int) {
		j := jobs[i]
		m := ms[j.mi]
		n := int64(1) << uint(j.dim)
		plan, err := basePlans[j.mi].Remap(j.dim)
		if err != nil {
			errs[i] = err
			return
		}
		s, err := plan.Simulate(c.params, loopmap.SimOptions{})
		if err != nil {
			errs[i] = err
			return
		}
		rows[i] = row{
			m: m, n: n,
			analytic: analysis.MatVecExecTime(m, n, c.params),
			makespan: s.Makespan, critOps: s.MaxProcOps, critWords: s.CriticalInOutWords(),
		}
	})
	for _, err := range errs {
		if err != nil {
			fail(err)
		}
	}

	tb := report.NewTable("M", "N", "analytic_texec", "sim_makespan", "sim_critical_ops", "sim_critical_words")
	for _, r := range rows {
		tb.AddRow(r.m, r.n, r.analytic, r.makespan, r.critOps, r.critWords)
	}
	return tb
}

// grain sweeps the comm/comp ratio of the critical processor.
func grain(c cfg) *report.Table {
	tb := report.NewTable("M", "N", "comm_comp_ratio")
	for _, n := range []int64{4, 16, 64, 256} {
		for m := int64(64); m <= 8192; m *= 2 {
			tb.AddRow(m, n, analysis.CommCompRatio(m, n, c.params))
		}
	}
	return tb
}

// mappingSweep compares mapping policies across cube dimensions. The
// matmul base plan is built once; the per-dimension evaluations (gray,
// linear, five random seeds) fan out over the pool.
func mappingSweep(c cfg) *report.Table {
	base, err := loopmap.NewPlan(loopmap.NewKernel("matmul", 12), loopmap.PlanOptions{CubeDim: -1})
	if err != nil {
		fail(err)
	}
	dims := []int{2, 3, 4, 5, 6}
	type dimRows [3][5]interface{}
	rows, err := pool.MapErr(len(dims), func(i int) (dimRows, error) {
		var out dimRows
		dim := dims[i]
		plan, err := base.Remap(dim)
		if err != nil {
			return out, err
		}
		gray, err := plan.EvaluateMapping()
		if err != nil {
			return out, err
		}
		out[0] = [5]interface{}{dim, "gray", gray.HopWeight, gray.MaxDilation, gray.MaxLoad}
		lin, err := mapping.Linear(plan.TIG.N, dim)
		if err != nil {
			return out, err
		}
		ls := mapping.Evaluate(plan.TIG, lin)
		out[1] = [5]interface{}{dim, "linear", ls.HopWeight, ls.MaxDilation, ls.MaxLoad}
		var rndHop, rndLoad int64
		maxDil := 0
		const seeds = 5
		for s := int64(0); s < seeds; s++ {
			rnd, err := mapping.Random(plan.TIG.N, dim, s)
			if err != nil {
				return out, err
			}
			rs := mapping.Evaluate(plan.TIG, rnd)
			rndHop += rs.HopWeight
			rndLoad += rs.MaxLoad
			if rs.MaxDilation > maxDil {
				maxDil = rs.MaxDilation
			}
		}
		out[2] = [5]interface{}{dim, "random_mean5", rndHop / seeds, maxDil, rndLoad / seeds}
		return out, nil
	})
	if err != nil {
		fail(err)
	}
	tb := report.NewTable("dim", "policy", "hop_weight", "max_dilation", "max_load")
	for _, dr := range rows {
		for _, r := range dr {
			tb.AddRow(r[:]...)
		}
	}
	return tb
}

// speedup sweeps analytic speedup and efficiency at several problem sizes.
func speedup(c cfg) *report.Table {
	tb := report.NewTable("M", "N", "texec", "speedup", "efficiency")
	for _, m := range []int64{256, 1024, 4096} {
		for _, n := range analysis.PaperTableISizes {
			if n > m {
				break
			}
			tb.AddRow(m, n, analysis.MatVecExecTime(m, n, c.params),
				analysis.Speedup(m, n, c.params), analysis.Efficiency(m, n, c.params))
		}
	}
	return tb
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
