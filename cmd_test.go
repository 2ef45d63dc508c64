package loopmap

// Smoke tests for the command-line tools: every cmd binary is run through
// `go run` on a small workload and its output checked for the signature
// lines. These double as end-to-end tests of the flag plumbing.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "." // module root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCmdLooppartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cmds via the go tool")
	}
	out := runCmd(t, "./cmd/looppart", "-kernel", "matmul", "-size", "4", "-groups")
	for _, want := range []string{
		"17 blocks",
		"Theorem 2 bound 4",
		"coordinate method: not applicable",
		"invariants: Lemma 1 / Theorem 1 / Theorem 2 verified",
		"G16",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("looppart output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdLooppartDSLAndEmit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cmds via the go tool")
	}
	dir := t.TempDir()
	loopFile := filepath.Join(dir, "conv.loop")
	src := "for i = 0 to 7\nfor j = 0 to 3\n{\n y[i, j+1] = y[i, j] + w[j] * x[i-j]\n}\n"
	if err := os.WriteFile(loopFile, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "./cmd/looppart", "-file", loopFile, "-grid")
	if !strings.Contains(out, "invariants: Lemma 1 / Theorem 1 / Theorem 2 verified") {
		t.Errorf("looppart -file output:\n%s", out)
	}
	// Emit a parallel program and run it.
	par := filepath.Join(dir, "par.go")
	out = runCmd(t, "./cmd/looppart", "-file", loopFile, "-emit", par, "-emitdim", "2")
	if !strings.Contains(out, "wrote") {
		t.Errorf("emit output:\n%s", out)
	}
	res := runCmd(t, par)
	if !strings.HasPrefix(strings.TrimSpace(res), "OK ") {
		t.Errorf("emitted program output: %q", res)
	}
}

func TestCmdHypermapSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cmds via the go tool")
	}
	out := runCmd(t, "./cmd/hypermap", "-kernel", "matvec", "-size", "16", "-dim", "2", "-verify", "-gantt")
	for _, want := range []string{
		"mapping comparison:",
		"gray (Algorithm 2)",
		"simulation:",
		"timeline ('#' compute, '~' send, '.' idle):",
		"verify: concurrent execution matches the sequential reference",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("hypermap output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cmds via the go tool")
	}
	out := runCmd(t, "./cmd/experiments", "-e", "fig3")
	if strings.Contains(out, "DIFFERS") {
		t.Errorf("experiments reported a divergence:\n%s", out)
	}
	for _, want := range []string{"projected points", "paper=7", "paper=12"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiments output missing %q:\n%s", want, out)
		}
	}
}

// TestCmdExperimentsAllMatchPaper runs the complete reproduction — every
// table and figure, including the million-iteration Table I cross-check —
// and asserts not a single paper-vs-measured line diverges.
func TestCmdExperimentsAllMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite via the go tool")
	}
	out := runCmd(t, "./cmd/experiments", "-e", "all")
	if strings.Contains(out, "DIFFERS") {
		for _, l := range strings.Split(out, "\n") {
			if strings.Contains(l, "DIFFERS") {
				t.Errorf("divergence: %s", strings.TrimSpace(l))
			}
		}
	}
	// All experiments actually ran.
	for _, header := range []string{
		"=== fig1:", "=== fig3:", "=== fig5:", "=== fig7:", "=== fig8:",
		"=== fig9:", "=== table1:", "=== ablate:", "=== mapablate:",
		"=== grain:", "=== mesh:", "=== granularity:", "=== verify:",
		"=== faults:",
	} {
		if !strings.Contains(out, header) {
			t.Errorf("experiment missing from -e all: %s", header)
		}
	}
}

func TestCmdSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cmds via the go tool")
	}
	out := runCmd(t, "./cmd/sweep", "-s", "grain")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 10 {
		t.Fatalf("sweep produced %d lines", len(lines))
	}
	if lines[0] != "M,N,comm_comp_ratio" {
		t.Errorf("CSV header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != 2 {
			t.Errorf("malformed CSV row %q", l)
		}
	}
}

func TestCmdLoopmapdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cmds via the go tool")
	}
	out := runCmd(t, "./cmd/loopmapd", "-smoke")
	for _, want := range []string{
		"POST /v1/plan -> 200 OK",
		`"kernel":"l1"`,
		`"cache":"miss"`,
		`"procs":8`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("loopmapd smoke output missing %q:\n%s", want, out)
		}
	}
}

// The encoded-response cache has no off switch and the scrubber no
// unthrottled mode: a negative budget is a flag error, not a mode.
func TestCmdLoopmapdRejectsNegativeBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs cmds via the go tool")
	}
	for _, flag := range []string{"-resp-cache-mb", "-scrub-rate-mb"} {
		cmd := exec.Command("go", "run", "./cmd/loopmapd", flag, "-1", "-smoke")
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), "must not be negative") {
			t.Errorf("loopmapd %s -1: err %v, output:\n%s", flag, err, out)
		}
	}
}
