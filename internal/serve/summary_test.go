package serve

import (
	"fmt"
	"strings"
	"testing"

	loopmap "repro"
	"repro/internal/core"
	"repro/internal/mapping"
)

// summaryByFmt is the plan summary as fmt renders it, the reference for
// the strconv appends of Plan.SummaryWith.
func summaryByFmt(p *loopmap.Plan, ms mapping.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s: %d iterations, %d dependences, Π = %v, %d steps\n",
		p.Kernel.Name, p.Structure.Len(), len(p.Structure.D), p.Schedule.Pi, p.Schedule.Steps())
	fmt.Fprintf(&b, "projection: %d projected points (s = %d), group size r = %d, β = %d\n",
		len(p.Projected.Points), p.Projected.S, p.Partitioning.R, p.Partitioning.Beta)
	es := p.TIG.EdgeStats()
	fmt.Fprintf(&b, "partitioning: %d blocks, max block %d points, %d/%d dependences interblock\n",
		p.Partitioning.NumBlocks(), p.TIG.MaxLoad(), es.InterBlock, es.Total)
	fmt.Fprintf(&b, "TIG: %d edges, traffic %d, max out-degree %d (Theorem 2 bound %d)\n",
		len(p.TIG.Edges), p.TIG.TotalTraffic(), p.TIG.MaxOutDegree(), core.Theorem2Bound(p.Partitioning))
	if p.Mapping != nil {
		fmt.Fprintf(&b, "mapping: %s, hop-weight %d, max dilation %d, load [%d, %d]\n",
			p.Mapping.Cube, ms.HopWeight, ms.MaxDilation, ms.MinLoad, ms.MaxLoad)
	}
	return b.String()
}

// TestSummaryMatchesFmtOracle renders the summary of every plan the
// response digest covers, mapped and unmapped, and compares it with the
// fmt reference.
func TestSummaryMatchesFmtOracle(t *testing.T) {
	oracle := planOracle{}
	for _, req := range digestKeys() {
		p, err := oracle.plan(&req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		ms, _ := p.EvaluateMapping()
		if got, want := p.SummaryWith(ms), summaryByFmt(p, ms); got != want {
			t.Fatalf("%s/%d cube %d: SummaryWith =\n%s\nfmt reference =\n%s", req.Kernel, req.Size, *req.CubeDim, got, want)
		}
	}
}
