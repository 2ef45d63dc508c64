package loopmap

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current commands")

// goldenSweeps are the series sweep -list prints, in a fixed order.
var goldenSweeps = []string{"exectime", "grain", "mapping", "speedup"}

// goldenExamples are the programs under examples/.
var goldenExamples = []string{"closure", "dsl", "matmul", "matvec", "quickstart", "stencil"}

// TestDisplayOutputsMatchGolden builds the experiments and sweep commands
// and every example once, runs them, and compares three outputs byte for
// byte with testdata: experiments -e all, the four sweep series, and the
// six examples. Together they print every display path of the library
// (grids, SVG-free summaries, baselines, simulations, execution). Run
// with -update to rewrite the files after an intended change of output.
func TestDisplayOutputsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the commands and examples")
	}
	start := time.Now()
	bin := t.TempDir()
	pkgs := []string{"./cmd/experiments", "./cmd/sweep"}
	for _, ex := range goldenExamples {
		pkgs = append(pkgs, "./examples/"+ex)
	}
	build := exec.Command("go", append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(name string, args ...string) []byte {
		t.Helper()
		out, err := exec.Command(filepath.Join(bin, name), args...).Output()
		if err != nil {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		return out
	}

	var sweep, examples bytes.Buffer
	for _, s := range goldenSweeps {
		sweep.WriteString("== sweep -s " + s + "\n")
		sweep.Write(run("sweep", "-s", s))
	}
	for _, ex := range goldenExamples {
		examples.WriteString("== examples/" + ex + "\n")
		examples.Write(run(ex))
	}
	for _, g := range []struct {
		file string
		out  []byte
	}{
		{"experiments.golden", run("experiments", "-e", "all")},
		{"sweep.golden", sweep.Bytes()},
		{"examples.golden", examples.Bytes()},
	} {
		path := filepath.Join("testdata", g.file)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.out, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.out, want) {
			t.Errorf("%s: output differs from the golden file (%d bytes, want %d); diff it with -update and git diff", path, len(g.out), len(want))
		}
	}
	t.Logf("built and ran %d programs in %v", len(pkgs), time.Since(start).Round(time.Millisecond))
}
