// Command perfbench is loopmap's end-to-end benchmark. It boots an
// in-process loopmapd (internal/serve), drives it through the public
// client package with two closed-loop clients on one P, checks every
// answer, and prints one JSON result line. From the repository root:
//
//	bash perfbench/run.sh --workload hit-hot --seed 1 --seconds 20 --trace 0
//
// It flushes the page cache with sync(2) around its disk phases, so it
// builds on Unix only.
//
// Workloads (see workload.go): hit-hot times encoded-response cache hits,
// miss-cold a stream of never-repeating base keys that each run the whole
// planner, tier-churn a larger-than-RAM keyspace over the on-disk tier.
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, taken by timing calls into each layer
// from this package.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	work     string
}

// timedProcs is the GOMAXPROCS the benchmark runs at: clients and daemon
// share one P, and only the untimed oracle uses every CPU. On a 2-vCPU
// VM on a shared host, figures taken on two Ps followed the host's load:
// six alternating pairs of runs gave IQR/median 0.18 on miss-cold and
// hit-hot throughput on two Ps against 0.09 and 0.06 on one.
const timedProcs = 1

// setupRepeats is how many times a run restarts a daemon on its durable
// store, and opens the replay's tier, before timing; setup_s and
// tiered.open_s are the medians.
const setupRepeats = 31

// Tier-churn's RAM budgets follow loadtest's coldset workload: small
// enough that the fill keyspace is several times what RAM holds.
const (
	churnPlanCacheBytes = 1 << 20
	churnRespCacheBytes = 256 << 10
	churnMemtableBytes  = 64 << 10
)

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed")
	flag.IntVar(&opt.seconds, "seconds", 10, "nominal measured seconds; scales the op count")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&opt.work, "workdir", filepath.Join(".bench_build", "run"), "working directory for the disk tier's files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	opt.trace = trace == 1
	runtime.GOMAXPROCS(timedProcs)

	rep, err := run(context.Background(), opt)
	if err != nil {
		fail(err)
	}
	rep.print(opt)
	if !rep.correct() {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	name, unit string
	value      float64
	note       string
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	metrics           []metric
	notes             []string // printed, not part of the JSON result
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *report) print(opt options) {
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-36s %14.6f %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Printf("%-36s %14.6f ratio  (%d of %d calls failed or wrong)\n",
		"error_ratio", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Println("problem:", p)
	}
	if opt.workload == tierChurn {
		fmt.Println("note:", tierChurnNote)
	}
	fmt.Printf("meta: workload=%s seed=%d seconds=%d trace=%t gomaxprocs=%d numcpu=%d go=%s clients=%d\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), clients)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}
