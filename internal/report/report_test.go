package report

import (
	"strings"
	"testing"

	"repro/internal/vec"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("N", "T_exec")
	tb.AddRow(1, 2097152)
	tb.AddRow(1024, 4094)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "N") || !strings.Contains(lines[0], "T_exec") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "2097152") || !strings.Contains(lines[3], "4094") {
		t.Fatalf("rows wrong:\n%s", out)
	}
	// Separator row present.
	if !strings.Contains(lines[1], "-") {
		t.Fatalf("no separator:\n%s", out)
	}
}

func TestTableFloatTrimming(t *testing.T) {
	tb := NewTable("x")
	tb.AddRow(1.5)
	tb.AddRow(2.0)
	tb.AddRow(0.12345)
	out := tb.String()
	if !strings.Contains(out, "1.5\n") || !strings.Contains(out, "2\n") || !strings.Contains(out, "0.1235") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("a")
	tb.AddRow("x", "y", "z")
	out := tb.String()
	if !strings.Contains(out, "z") {
		t.Fatalf("extra cells lost:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(1, "plain")
	tb.AddRow(2.5, `with,comma "and" quote`)
	var b strings.Builder
	tb.CSV(&b)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv = %q", b.String())
	}
	if lines[0] != "a,b" || lines[1] != "1,plain" {
		t.Fatalf("csv rows wrong: %v", lines)
	}
	if lines[2] != `2.5,"with,comma ""and"" quote"` {
		t.Fatalf("quoting wrong: %q", lines[2])
	}
}

// each walks pts as loop.Structure.Points walks a structure.
func each(pts []vec.Int) func(func(int, vec.Int) bool) {
	return func(visit func(int, vec.Int) bool) {
		for i, p := range pts {
			if !visit(i, p) {
				return
			}
		}
	}
}

func TestGrid2D(t *testing.T) {
	pts := []vec.Int{
		vec.NewInt(0, 0), vec.NewInt(0, 1), vec.NewInt(1, 0), vec.NewInt(1, 1),
	}
	out := Grid2D(each(pts), func(p vec.Int) string {
		if p[0] == p[1] {
			return "D"
		}
		return "o"
	})
	want := "D o \no D \n"
	if out != want {
		t.Fatalf("grid = %q, want %q", out, want)
	}
}

func TestGrid2DSparse(t *testing.T) {
	pts := []vec.Int{vec.NewInt(0, 0), vec.NewInt(2, 2)}
	out := Grid2D(each(pts), func(p vec.Int) string { return "X" })
	// Missing points are dots.
	if strings.Count(out, ".") != 7 || strings.Count(out, "X") != 2 {
		t.Fatalf("sparse grid wrong:\n%s", out)
	}
}

func TestGrid2DEmpty(t *testing.T) {
	if Grid2D(each(nil), nil) != "(empty)\n" {
		t.Fatal("empty grid rendering wrong")
	}
}

func TestHistogram(t *testing.T) {
	out := Histogram([]string{"a", "bb"}, []float64{2, 4}, 8)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("hist = %q", out)
	}
	if strings.Count(lines[0], "#") != 4 || strings.Count(lines[1], "#") != 8 {
		t.Fatalf("bar scaling wrong:\n%s", out)
	}
	if !strings.HasSuffix(lines[1], "4") {
		t.Fatalf("value label missing:\n%s", out)
	}
}

func TestHistogramZeroValues(t *testing.T) {
	out := Histogram([]string{"a"}, []float64{0}, 10)
	if strings.Contains(out, "#") {
		t.Fatalf("zero value drew a bar: %q", out)
	}
}

func TestHistogramMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched inputs did not panic")
		}
	}()
	Histogram([]string{"a"}, []float64{1, 2}, 10)
}
