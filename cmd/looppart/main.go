// Command looppart partitions a built-in nested-loop kernel with
// Algorithm 1 of the paper and prints the schedule, the projected
// structure, the groups/blocks, and the TIG, verifying the Lemma/Theorem
// invariants along the way.
//
// Usage:
//
//	looppart -kernel matmul -size 4
//	looppart -kernel stencil -size 8 -pi 2,1 -groups
//	looppart -kernel l1 -size 3 -search
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	loopmap "repro"
	"repro/internal/core"
	"repro/internal/hyperplane"
	"repro/internal/loop"
	"repro/internal/report"
	"repro/internal/svg"
	"repro/internal/vec"
)

func main() {
	var (
		kernel   = flag.String("kernel", "matmul", "kernel name ("+strings.Join(loopmap.KernelNames(), ", ")+")")
		size     = flag.Int64("size", 4, "kernel size parameter")
		file     = flag.String("file", "", "parse the loop from a DSL file instead of using -kernel")
		piFlag   = flag.String("pi", "", "time function Π as comma-separated integers (default: kernel's)")
		search   = flag.Bool("search", false, "search for the optimal Π instead of using the default")
		groups   = flag.Bool("groups", false, "print every group and its block")
		gridFlag = flag.Bool("grid", false, "print the block of every iteration as a 2-D grid (2-D kernels only)")
		emit     = flag.String("emit", "", "with -file: write a standalone parallel Go program to this path")
		svgOut   = flag.String("svg", "", "write the 2-D structure (colored by block) as SVG to this path")
		svgTIG   = flag.String("svgtig", "", "write the TIG graph as SVG to this path")
		emitDim  = flag.Int("emitdim", 2, "hypercube dimension for -emit")
	)
	flag.Parse()

	if *emit != "" {
		if *file == "" {
			fail(fmt.Errorf("-emit requires -file"))
		}
		src, err := os.ReadFile(*file)
		if err != nil {
			fail(err)
		}
		code, err := loopmap.GenerateSPMD(*file, string(src), *emitDim, 1)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*emit, []byte(code), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s: SPMD program for %d processors (run with `go run %s`)\n",
			*emit, 1<<uint(*emitDim), *emit)
		return
	}

	opt := loopmap.PlanOptions{CubeDim: -1, SearchPi: *search}
	if *piFlag != "" {
		pi, err := parseVec(*piFlag)
		if err != nil {
			fail(err)
		}
		opt.Pi = pi
	}
	var k *loopmap.Kernel
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fail(err)
		}
		k, err = loopmap.ParseKernel(*file, string(src), 1)
		if err != nil {
			fail(err)
		}
		fmt.Printf("parsed %s: dependences %v, optimal Π = %v\n", *file, k.Deps, k.Pi)
	} else {
		k = loopmap.NewKernel(*kernel, *size)
	}
	plan, err := loopmap.NewPlan(k, opt)
	if err != nil {
		fail(err)
	}
	fmt.Print(plan.Summary())

	// Dependence classification (the single-assignment rewriting absorbs
	// anti/output dependences; show what the front end sees).
	if cls := k.Nest.ClassifyDependences(); len(cls) > 0 {
		counts := map[loop.DepClass]int{}
		for _, c := range cls {
			counts[c.Class]++
		}
		fmt.Printf("dependences by class: %d flow, %d anti, %d output\n",
			counts[loop.Flow], counts[loop.Anti], counts[loop.Output])
	}

	// Lamport's coordinate method for contrast (§I of the paper).
	coord := hyperplane.CoordinateMethod(plan.Structure)
	if coord.Applicable() {
		fmt.Printf("coordinate method: DOALL dims %v, %d sequential steps (hyperplane: %d)\n",
			coord.ParallelDims, coord.Steps, plan.Schedule.Steps())
	} else {
		fmt.Printf("coordinate method: not applicable (would serialize to %d steps; hyperplane needs %d)\n",
			coord.Steps, plan.Schedule.Steps())
	}

	if *groups {
		fmt.Println("\ngroups:")
		tb := report.NewTable("group", "base (scaled)", "projected points", "block size", "sends to")
		part := plan.Partitioning
		for g := range part.NumBlocks() {
			tb.AddRow(fmt.Sprintf("G%d", g), part.Base(g), len(part.Members(g)),
				part.BlockSize(g), fmt.Sprint(plan.TIG.Successors(g)))
		}
		tb.Render(os.Stdout)
	}

	if *gridFlag {
		if plan.Structure.Dim() != 2 {
			fail(fmt.Errorf("-grid requires a 2-D kernel, %s is %d-D", *kernel, plan.Structure.Dim()))
		}
		fmt.Println("\nblock of each iteration (first index down, second right):")
		fmt.Print(report.Grid2D(plan.Structure.Vertices(), func(p vec.Int) string {
			return strconv.Itoa(plan.Partitioning.BlockOfPoint(p))
		}))
	}

	if *svgOut != "" {
		if plan.Structure.Dim() != 2 {
			fail(fmt.Errorf("-svg requires a 2-D kernel"))
		}
		doc, err := svg.Structure2D(plan.Structure,
			func(x vec.Int) int { return plan.Partitioning.BlockOfPoint(x) },
			plan.Partitioning.NumBlocks(),
			func(x vec.Int) int64 { return plan.Schedule.Step(x) })
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*svgOut, []byte(doc), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("\nwrote %s\n", *svgOut)
	}
	if *svgTIG != "" {
		doc, err := svg.TIG(plan.TIG)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*svgTIG, []byte(doc), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *svgTIG)
	}

	if err := core.CheckInvariants(plan.Partitioning); err != nil {
		fail(fmt.Errorf("invariant check failed: %w", err))
	}
	if err := core.CheckTheorem2(plan.Partitioning, plan.TIG); err != nil {
		fail(fmt.Errorf("Theorem 2 check failed: %w", err))
	}
	fmt.Println("\ninvariants: Lemma 1 / Theorem 1 / Theorem 2 verified")
}

func parseVec(s string) (vec.Int, error) {
	parts := strings.Split(s, ",")
	out := make(vec.Int, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("looppart: bad Π component %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "looppart:", err)
	os.Exit(1)
}
