// Command benchpairs summarizes the paired benchmark runs that
// scripts/benchpairs.sh leaves in its results directory, one file per run
// named <workload>-<seed>-<base|head>.txt holding perfbench's output. For
// every workload and end-to-end metric of BENCHMARK.json (plus
// error_ratio) it reports each side's median and quartiles over the
// seeds, and how many seeds the change (head) won, ties counting for
// neither; error_ratio is each run's failed calls over attempted ones. A
// run perfbench marked incorrect, or one missing an end-to-end metric, is
// an error. It prints a table and writes the summary as JSON. With -plan it
// instead prints BENCHMARK.json's run length and workload names on one
// line, for the script to run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// result is perfbench's JSON result line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// benchmark is the part of BENCHMARK.json the summary reads.
type benchmark struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// side is one commit's runs of one metric, in seed order.
type side struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

type metricSummary struct {
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound,omitempty"`
	Base     side    `json:"base"`
	Head     side    `json:"head"`
	HeadWins int     `json:"head_wins"`
	Pairs    int     `json:"pairs"`
	// Change is head's median over base's, minus one.
	Change float64 `json:"change"`
}

type summary struct {
	Base      string                              `json:"base"`
	Head      string                              `json:"head"`
	Seconds   int                                 `json:"seconds"`
	Seeds     []int                               `json:"seeds"`
	Machine   string                              `json:"machine"`
	Workloads map[string]map[string]metricSummary `json:"workloads"`
}

func main() {
	results := flag.String("results", ".bench_build/pairs/results", "directory of run outputs")
	benchFile := flag.String("bench", "BENCHMARK.json", "benchmark definition")
	base := flag.String("base", "", "name of the parent side")
	head := flag.String("head", "", "name of the change side")
	out := flag.String("out", "", "JSON summary to write (none when empty)")
	plan := flag.Bool("plan", false, "print the run length and workload names, then exit")
	flag.Parse()
	def, err := readBenchmark(*benchFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
	if *plan {
		fmt.Println(planLine(def))
		return
	}
	s, err := summarize(*results, def)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
	s.Base, s.Head, s.Seconds = *base, *head, def.RunSeconds
	printTable(s)
	if *out == "" {
		return
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

// parseRun reads one run's output: its JSON result line and its meta line.
func parseRun(path string) (*result, string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var r *result
	meta := ""
	for _, line := range strings.Split(string(b), "\n") {
		switch {
		case strings.HasPrefix(line, "meta: "):
			meta = line
		case strings.HasPrefix(line, "{"):
			r = new(result)
			if err := json.Unmarshal([]byte(line), r); err != nil {
				return nil, "", fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	if r == nil {
		return nil, "", fmt.Errorf("%s: no result line", path)
	}
	if !r.Correct {
		return nil, "", fmt.Errorf("%s: run marked incorrect (%d of %d calls failed)", path, r.Failed, r.Attempted)
	}
	return r, meta, nil
}

// planLine is BENCHMARK.json's run length and workload names on one line.
func planLine(def *benchmark) string {
	fields := []string{strconv.Itoa(def.RunSeconds)}
	for _, w := range def.Workloads {
		fields = append(fields, w.Name)
	}
	return strings.Join(fields, " ")
}

// machine keeps the fields of a meta line that describe the host.
func machine(meta string) string {
	var keep []string
	for _, f := range strings.Fields(meta) {
		for _, k := range []string{"gomaxprocs=", "numcpu=", "go=", "clients="} {
			if strings.HasPrefix(f, k) {
				keep = append(keep, f)
			}
		}
	}
	return strings.Join(keep, " ")
}

func readBenchmark(path string) (*benchmark, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	def := new(benchmark)
	if err := json.Unmarshal(b, def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if def.RunSeconds <= 0 || len(def.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no run_seconds or workloads", path)
	}
	return def, nil
}

func summarize(dir string, def *benchmark) (*summary, error) {
	defs := append(def.EndToEnd, metricDef{Name: "error_ratio", Unit: "ratio", Better: "lower"})
	s := &summary{Workloads: map[string]map[string]metricSummary{}}
	for _, w := range def.Workloads {
		seeds, err := seedsOf(dir, w.Name)
		if err != nil {
			return nil, err
		}
		if len(seeds) == 0 {
			continue
		}
		s.Seeds = seeds
		runs := map[string]map[string][]float64{"base": {}, "head": {}}
		for _, seed := range seeds {
			for sideName, vals := range runs {
				path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.txt", w.Name, seed, sideName))
				r, meta, err := parseRun(path)
				if err != nil {
					return nil, err
				}
				if s.Machine == "" {
					s.Machine = machine(meta)
				}
				for _, d := range def.EndToEnd {
					m, ok := r.Metrics[d.Name]
					if !ok {
						return nil, fmt.Errorf("%s: no %s metric", path, d.Name)
					}
					vals[d.Name] = append(vals[d.Name], m.Value)
				}
				errorRatio := 0.0
				if r.Attempted > 0 {
					errorRatio = float64(r.Failed) / float64(r.Attempted)
				}
				vals["error_ratio"] = append(vals["error_ratio"], errorRatio)
			}
		}
		ws := map[string]metricSummary{}
		for _, d := range defs {
			bv, hv := runs["base"][d.Name], runs["head"][d.Name]
			m := metricSummary{Unit: d.Unit, Better: d.Better, Bound: d.Bound,
				Base: describe(bv), Head: describe(hv), Pairs: len(bv)}
			for i := range bv {
				if (d.Better == "higher" && hv[i] > bv[i]) || (d.Better == "lower" && hv[i] < bv[i]) {
					m.HeadWins++
				}
			}
			if m.Base.Median != 0 {
				m.Change = m.Head.Median/m.Base.Median - 1
			}
			ws[d.Name] = m
		}
		s.Workloads[w.Name] = ws
	}
	if len(s.Workloads) == 0 {
		return nil, errors.New("no paired runs found")
	}
	return s, nil
}

// seedsOf lists the seeds with a run of workload w, in increasing order.
func seedsOf(dir, w string) ([]int, error) {
	files, err := filepath.Glob(filepath.Join(dir, w+"-*-base.txt"))
	if err != nil {
		return nil, err
	}
	var seeds []int
	for _, f := range files {
		n := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), w+"-"), "-base.txt")
		seed, err := strconv.Atoi(n)
		if err != nil {
			continue
		}
		seeds = append(seeds, seed)
	}
	sort.Ints(seeds)
	return seeds, nil
}

// describe gives the median and quartiles of xs, interpolating between
// order statistics.
func describe(xs []float64) side {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	q := func(p float64) float64 {
		if len(sorted) == 0 {
			return 0
		}
		pos := p * float64(len(sorted)-1)
		i := int(pos)
		if i+1 >= len(sorted) {
			return sorted[i]
		}
		return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
	}
	return side{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), Runs: xs}
}

func printTable(s *summary) {
	fmt.Printf("base %s, head %s, seeds %v, %s\n", s.Base, s.Head, s.Seeds, s.Machine)
	var names []string
	for w := range s.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		var metrics []string
		for m := range s.Workloads[w] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			x := s.Workloads[w][m]
			fmt.Printf("%-10s %-15s base %12.4f [%.4f, %.4f]  head %12.4f [%.4f, %.4f]  %+6.1f%%  head better %d/%d\n",
				w, m, x.Base.Median, x.Base.Q1, x.Base.Q3, x.Head.Median, x.Head.Q1, x.Head.Q3, 100*x.Change, x.HeadWins, x.Pairs)
		}
	}
}
