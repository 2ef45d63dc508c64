// Package report renders aligned ASCII tables and small 2-D structure
// diagrams for the experiment drivers and examples — the textual
// equivalents of the paper's tables and figures.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/vec"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	writeRow := func(row []string) {
		parts := make([]string, cols)
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// CSV writes the table as comma-separated values (header first). Cells
// containing commas or quotes are quoted per RFC 4180.
func (t *Table) CSV(w io.Writer) {
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				io.WriteString(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			io.WriteString(w, c)
		}
		io.WriteString(w, "\n")
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
}

// Grid2D renders a labelling of 2-D integer points as a grid, with the
// first coordinate increasing downward (rows) and the second rightward
// (columns) — the layout of the paper's Figs. 1 and 3. points walks the
// points until its visit returns false, as loop.Structure.Points does; it
// may reuse one buffer for every point.
// label(p) should return a short string for point p (e.g. its block ID).
func Grid2D(points func(visit func(int, vec.Int) bool), label func(p vec.Int) string) string {
	var minI, maxI, minJ, maxJ int64
	cells := map[string]string{}
	width := 1
	points(func(_ int, p vec.Int) bool {
		if len(cells) == 0 {
			minI, maxI, minJ, maxJ = p[0], p[0], p[1], p[1]
		}
		minI, maxI = min(minI, p[0]), max(maxI, p[0])
		minJ, maxJ = min(minJ, p[1]), max(maxJ, p[1])
		l := label(p)
		cells[p.Key()] = l
		width = max(width, len(l))
		return true
	})
	if len(cells) == 0 {
		return "(empty)\n"
	}
	var b strings.Builder
	for i := minI; i <= maxI; i++ {
		for j := minJ; j <= maxJ; j++ {
			l, ok := cells[vec.NewInt(i, j).Key()]
			if !ok {
				l = "."
			}
			fmt.Fprintf(&b, "%*s ", width, l)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Histogram renders labelled horizontal bars scaled to maxWidth characters.
func Histogram(labels []string, values []float64, maxWidth int) string {
	if len(labels) != len(values) {
		panic("report: Histogram labels/values mismatch")
	}
	if maxWidth < 1 {
		maxWidth = 40
	}
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	var b strings.Builder
	for i, v := range values {
		n := 0
		if maxV > 0 {
			n = int(v / maxV * float64(maxWidth))
		}
		fmt.Fprintf(&b, "%s  %s %s\n", pad(labels[i], maxL), strings.Repeat("#", n), trimFloat(v))
	}
	return b.String()
}
