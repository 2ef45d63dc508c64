// Package svg renders the paper's figures as standalone SVG documents:
// 2-D computational structures with dependence arrows and block coloring
// (Figs. 1, 3, 9), TIG graphs (Fig. 7), and simulated execution timelines.
// Everything is emitted with fmt onto plain strings — no dependencies —
// and the output is well-formed XML (checked by the tests).
package svg

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/loop"
	"repro/internal/sim"
	"repro/internal/vec"
)

// palette returns a visually distinct fill color for class i of n.
func palette(i, n int) string {
	if n < 1 {
		n = 1
	}
	hue := (360 * i / n) % 360
	return fmt.Sprintf("hsl(%d, 65%%, 72%%)", hue)
}

const (
	cell   = 56.0 // grid pitch in user units
	radius = 14.0
	margin = 48.0
)

// Structure2D renders a 2-D computational structure: one circle per index
// point (colored by its block), one arrow per dependence arc, and the
// point's execution step as its label. blockOf may be nil (single color).
func Structure2D(st *loop.Structure, blockOf func(p vec.Int) int, numBlocks int, stepOf func(p vec.Int) int64) (string, error) {
	if st.Dim() != 2 {
		return "", fmt.Errorf("svg: Structure2D needs a 2-D structure, got %d-D", st.Dim())
	}
	if st.Len() == 0 {
		return "", fmt.Errorf("svg: empty structure")
	}
	p0 := st.Point(0, nil)
	minI, maxI := p0[0], p0[0]
	minJ, maxJ := p0[1], p0[1]
	st.Points(func(_ int, p vec.Int) bool {
		minI, maxI = min(minI, p[0]), max(maxI, p[0])
		minJ, maxJ = min(minJ, p[1]), max(maxJ, p[1])
		return true
	})
	// j increases rightward (x), i downward (y) — the paper's layout.
	px := func(p vec.Int) (float64, float64) {
		return margin + float64(p[1]-minJ)*cell, margin + float64(p[0]-minI)*cell
	}
	width := margin*2 + float64(maxJ-minJ)*cell
	height := margin*2 + float64(maxI-minI)*cell

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	b.WriteString(`<defs><marker id="arr" markerWidth="8" markerHeight="8" refX="7" refY="3" orient="auto"><path d="M0,0 L7,3 L0,6 z" fill="#555"/></marker></defs>` + "\n")

	// Dependence arrows first (under the nodes), shortened to the circle rim.
	st.Points(func(ui int, p vec.Int) bool {
		for _, d := range st.D {
			if st.NeighborOf(ui, p, d) < 0 {
				continue
			}
			x1, y1 := px(p)
			dx, dy := float64(d[1])*cell, float64(d[0])*cell
			// Normalize and trim by the radius on both ends.
			inv := 1.0 / math.Sqrt(dx*dx+dy*dy)
			ux, uy := dx*inv, dy*inv
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#555" stroke-width="1" marker-end="url(#arr)"/>`+"\n",
				x1+ux*radius, y1+uy*radius, x1+dx-ux*(radius+3), y1+dy-uy*(radius+3))
		}
		return true
	})

	st.Points(func(_ int, p vec.Int) bool {
		x, y := px(p)
		fill := palette(0, 1)
		if blockOf != nil {
			fill = palette(blockOf(p), numBlocks)
		}
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" stroke="#333"/>`+"\n", x, y, radius, fill)
		if stepOf != nil {
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" text-anchor="middle" dominant-baseline="central">%d</text>`+"\n",
				x, y, stepOf(p))
		}
		return true
	})
	b.WriteString("</svg>\n")
	return b.String(), nil
}

// TIG renders a task interaction graph with nodes on a circle, node area
// scaled by block load and edge width by traffic.
func TIG(t *core.TIG) (string, error) {
	if t.N == 0 {
		return "", fmt.Errorf("svg: empty TIG")
	}
	const r = 220.0
	size := 2 * (r + 70)
	cx, cy := size/2, size/2
	pos := make([][2]float64, t.N)
	for i := 0; i < t.N; i++ {
		ang := 2 * math.Pi * float64(i) / float64(t.N)
		pos[i] = [2]float64{cx + r*math.Cos(ang), cy + r*math.Sin(ang)}
	}
	var maxW int64 = 1
	for u := range t.N {
		_, weight := t.Row(u)
		for _, w := range weight {
			maxW = max(maxW, w)
		}
	}
	var maxLoad int64 = 1
	for _, l := range t.Loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		size, size, size, size)
	b.WriteString(`<defs><marker id="tarr" markerWidth="8" markerHeight="8" refX="7" refY="3" orient="auto"><path d="M0,0 L7,3 L0,6 z" fill="#777"/></marker></defs>` + "\n")
	for u := range t.N {
		to, weight := t.Row(u)
		for i, v := range to {
			w := 1 + 3*float64(weight[i])/float64(maxW)
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#777" stroke-width="%.1f" marker-end="url(#tarr)"/>`+"\n",
				pos[u][0], pos[u][1], pos[v][0], pos[v][1], w)
		}
	}
	for i := 0; i < t.N; i++ {
		nr := 10 + 14*float64(t.Loads[i])/float64(maxLoad)
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" stroke="#333"/>`+"\n",
			pos[i][0], pos[i][1], nr, palette(i, t.N))
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" text-anchor="middle" dominant-baseline="central">G%d</text>`+"\n",
			pos[i][0], pos[i][1], i)
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}

// Gantt renders a simulated timeline: one lane per processor, compute
// spans in blue, sends in orange.
func Gantt(stats *sim.Stats) (string, error) {
	if stats == nil || len(stats.Busy) == 0 {
		return "", fmt.Errorf("svg: no processors")
	}
	if len(stats.Spans) == 0 {
		return "", fmt.Errorf("svg: no spans recorded (set sim.Options.Timeline)")
	}
	const laneH, gap = 26.0, 8.0
	const plotW = 900.0
	n := len(stats.Busy)
	height := margin*2 + float64(n)*(laneH+gap)
	width := plotW + margin*2
	scale := plotW / stats.Makespan
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	for p := 0; p < n; p++ {
		y := margin + float64(p)*(laneH+gap)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="12" text-anchor="end" dominant-baseline="central">P%d</text>`+"\n",
			margin-8, y+laneH/2, p)
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#f0f0f0"/>`+"\n",
			margin, y, plotW, laneH)
	}
	for _, s := range stats.Spans {
		y := margin + float64(s.Proc)*(laneH+gap)
		color := "#5b8dd9"
		if s.Kind == sim.SpanSend {
			color = "#e8923a"
		}
		w := (s.End - s.Start) * scale
		if w < 0.5 {
			w = 0.5
		}
		fmt.Fprintf(&b, `<rect x="%.2f" y="%.1f" width="%.2f" height="%.1f" fill="%s"/>`+"\n",
			margin+s.Start*scale, y, w, laneH, color)
	}
	fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="12">makespan %.4g</text>`+"\n", margin, height-12, stats.Makespan)
	b.WriteString("</svg>\n")
	return b.String(), nil
}
