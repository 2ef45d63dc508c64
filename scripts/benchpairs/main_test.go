package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testBenchmark is a minimal BENCHMARK.json: two workloads and one
// metric of each direction.
const testBenchmark = `{
  "run_seconds": 20,
  "workloads": [{"name": "hit-hot", "why": "x"}, {"name": "miss-cold", "why": "y"}],
  "end_to_end": [
    {"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
  ]
}`

func readTestBenchmark(t *testing.T) *benchmark {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(path, []byte(testBenchmark), 0o644); err != nil {
		t.Fatal(err)
	}
	def, err := readBenchmark(path)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// run is one fake perfbench output file.
type run struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

func writeRun(t *testing.T, dir, name string, r run) {
	t.Helper()
	type value struct {
		Value float64 `json:"value"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for k, v := range r.metrics {
		out.Metrics[k] = value{v}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	text := fmt.Sprintf("throughput_rps 1 1/s\nmeta: workload=w seed=1 gomaxprocs=1 numcpu=2 go=go1.22 clients=2\n%s\n", b)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writePairs writes hit-hot runs for seeds 1..len(base); run i of each
// side gets the given throughput and latency.
func writePairs(t *testing.T, dir string, base, head [][2]float64) {
	t.Helper()
	for side, vals := range map[string][][2]float64{"base": base, "head": head} {
		for i, v := range vals {
			writeRun(t, dir, fmt.Sprintf("hit-hot-%d-%s.txt", i+1, side), run{
				correct: true, attempted: 100,
				metrics: map[string]float64{"throughput_rps": v[0], "latency_p50_ms": v[1]},
			})
		}
	}
}

func TestSummarize(t *testing.T) {
	def := readTestBenchmark(t)
	dir := t.TempDir()
	writePairs(t, dir,
		[][2]float64{{40, 1}, {10, 1}, {30, 1}, {20, 1}},
		[][2]float64{{40, 1}, {25, 0.5}, {35, 2}, {10, 1}})
	// error_ratio comes from failed/attempted, not from a metric of
	// that name.
	writeRun(t, dir, "hit-hot-4-head.txt", run{
		correct: true, attempted: 200, failed: 10,
		metrics: map[string]float64{"throughput_rps": 10, "latency_p50_ms": 1, "error_ratio": 0.9},
	})

	s, err := summarize(dir, def)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Seeds, []int{1, 2, 3, 4}) {
		t.Errorf("seeds = %v", s.Seeds)
	}
	if want := "gomaxprocs=1 numcpu=2 go=go1.22 clients=2"; s.Machine != want {
		t.Errorf("machine = %q, want %q", s.Machine, want)
	}
	if _, ok := s.Workloads["miss-cold"]; ok {
		t.Error("miss-cold summarized with no runs")
	}
	w := s.Workloads["hit-hot"]

	tp := w["throughput_rps"]
	// Base sorted is 10 20 30 40: q1, median and q3 interpolate at
	// positions 0.75, 1.5 and 2.25.
	if want := (side{Median: 25, Q1: 17.5, Q3: 32.5, Runs: []float64{40, 10, 30, 20}}); !reflect.DeepEqual(tp.Base, want) {
		t.Errorf("throughput base = %+v, want %+v", tp.Base, want)
	}
	if tp.Head.Median != 30 || tp.Head.Q1 != 21.25 || tp.Head.Q3 != 36.25 {
		t.Errorf("throughput head = %+v, want median 30, q1 21.25, q3 36.25", tp.Head)
	}
	// Seed 1 ties (40, 40): neither side wins it. Head wins seeds 2 and 3.
	if tp.HeadWins != 2 || tp.Pairs != 4 {
		t.Errorf("throughput head wins %d of %d, want 2 of 4", tp.HeadWins, tp.Pairs)
	}
	if math.Abs(tp.Change-0.2) > 1e-12 {
		t.Errorf("throughput change = %v", tp.Change)
	}
	// Lower is better: head wins only seed 2 (0.5 < 1); seeds 1 and 4 tie.
	if lat := w["latency_p50_ms"]; lat.HeadWins != 1 || lat.Better != "lower" {
		t.Errorf("latency head wins %d (better %q), want 1 (lower)", lat.HeadWins, lat.Better)
	}
	er := w["error_ratio"]
	if want := []float64{0, 0, 0, 0.05}; !reflect.DeepEqual(er.Head.Runs, want) {
		t.Errorf("error_ratio head runs = %v, want %v", er.Head.Runs, want)
	}
	if er.HeadWins != 0 {
		t.Errorf("error_ratio head wins = %d, want 0", er.HeadWins)
	}
}

func TestSummarizeRejectsBadRuns(t *testing.T) {
	def := readTestBenchmark(t)
	pairs := [][2]float64{{10, 1}, {20, 1}, {30, 1}}
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, dir string)
		want  []string // substrings of the error
	}{
		{"missing head file", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "hit-hot-2-head.txt")); err != nil {
				t.Fatal(err)
			}
		}, []string{"hit-hot-2-head.txt"}},
		{"incorrect run", func(t *testing.T, dir string) {
			writeRun(t, dir, "hit-hot-3-head.txt", run{
				attempted: 100, failed: 2,
				metrics: map[string]float64{"throughput_rps": 30, "latency_p50_ms": 1},
			})
		}, []string{"hit-hot-3-head.txt", "incorrect"}},
		{"missing metric", func(t *testing.T, dir string) {
			writeRun(t, dir, "hit-hot-1-head.txt", run{
				correct: true, attempted: 100,
				metrics: map[string]float64{"throughput_rps": 10},
			})
		}, []string{"hit-hot-1-head.txt", "latency_p50_ms"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writePairs(t, dir, pairs, pairs)
			tc.spoil(t, dir)
			_, err := summarize(dir, def)
			if err == nil {
				t.Fatal("summarize accepted the runs")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %q", err, w)
				}
			}
		})
	}
}

func TestPlanLine(t *testing.T) {
	if got, want := planLine(readTestBenchmark(t)), "20 hit-hot miss-cold"; got != want {
		t.Errorf("plan line = %q, want %q", got, want)
	}
}
