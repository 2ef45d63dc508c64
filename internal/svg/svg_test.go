package svg

import (
	"encoding/xml"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/machine"
	"repro/internal/project"
	"repro/internal/sim"
	"repro/internal/vec"
)

// countElems parses the SVG as XML and counts element names.
func countElems(t *testing.T, doc string) map[string]int {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(doc))
	counts := map[string]int{}
	for {
		tok, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("SVG is not well-formed XML: %v\n%s", err, doc[:min(len(doc), 600)])
		}
		if se, ok := tok.(xml.StartElement); ok {
			counts[se.Name.Local]++
		}
	}
	return counts
}

func l1Pipeline(t *testing.T) (*loop.Structure, hyperplane.Schedule, *core.Partitioning) {
	t.Helper()
	k := kernels.L1(3)
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := hyperplane.NewSchedule(st, k.Pi)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := project.Project(st, k.Pi)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Partition(ps, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return st, sch, p
}

func TestStructure2DFig3(t *testing.T) {
	st, sch, p := l1Pipeline(t)
	doc, err := Structure2D(st,
		func(x vec.Int) int { return p.BlockOfPoint(x) }, p.NumBlocks(),
		func(x vec.Int) int64 { return sch.Step(x) })
	if err != nil {
		t.Fatal(err)
	}
	c := countElems(t, doc)
	if c["circle"] != 16 {
		t.Fatalf("circles = %d, want 16", c["circle"])
	}
	// 33 dependence arrows + one marker path.
	if c["line"] != 33 {
		t.Fatalf("lines = %d, want 33", c["line"])
	}
	if c["text"] != 16 {
		t.Fatalf("texts = %d, want 16", c["text"])
	}
	// Four block colors present.
	colors := map[string]bool{}
	for _, l := range strings.Split(doc, "\n") {
		if i := strings.Index(l, "hsl("); i >= 0 {
			colors[l[i:i+12]] = true
		}
	}
	if len(colors) < 4 {
		t.Fatalf("distinct colors = %d, want >= 4", len(colors))
	}
}

func TestStructure2DErrors(t *testing.T) {
	k := kernels.MatMul(3)
	st, err := k.Structure()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Structure2D(st, nil, 0, nil); err == nil {
		t.Fatal("3-D structure accepted")
	}
}

func TestTIGFig7(t *testing.T) {
	_, _, p := l1Pipeline(t)
	tig := core.BuildTIG(p)
	doc, err := TIG(tig)
	if err != nil {
		t.Fatal(err)
	}
	c := countElems(t, doc)
	if c["circle"] != 4 {
		t.Fatalf("circles = %d, want 4 blocks", c["circle"])
	}
	// One line per TIG edge + the marker path.
	if c["line"] != len(tig.Edges) {
		t.Fatalf("lines = %d, want %d", c["line"], len(tig.Edges))
	}
}

func TestGanttSVG(t *testing.T) {
	st, sch, p := l1Pipeline(t)
	a := sim.BlocksAsProcs(p)
	stats, err := sim.Simulate(st, sch, a, machine.Unit(), sim.Options{Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Gantt(stats)
	if err != nil {
		t.Fatal(err)
	}
	c := countElems(t, doc)
	// Lane backgrounds (4) + one rect per span.
	if c["rect"] != 4+len(stats.Spans) {
		t.Fatalf("rects = %d, want %d", c["rect"], 4+len(stats.Spans))
	}
	// No timeline recorded → error.
	noSpans, err := sim.Simulate(st, sch, a, machine.Unit(), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Gantt(noSpans); err == nil {
		t.Fatal("Gantt without spans accepted")
	}
	if _, err := Gantt(nil); err == nil {
		t.Fatal("nil stats accepted")
	}
}

func TestPaletteDistinctness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		c := palette(i, 8)
		if seen[c] {
			t.Fatalf("palette repeats color %s", c)
		}
		seen[c] = true
	}
	if palette(0, 0) == "" {
		t.Fatal("palette with n=0 must still return a color")
	}
}
