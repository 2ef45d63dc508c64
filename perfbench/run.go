package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/serve"
)

// windows is how many consecutive slices the timed ops are split into.
// End-to-end figures are medians over the windows, so a burst of outside
// interference moves one window rather than the result. On traced runs
// the odd windows are traced and the even ones give the untraced
// baseline for trace.overhead_ratio.
const windows = 20

// window is what one slice of the timed ops measured.
type window struct {
	ops       []Op
	p         *phase
	traced    bool
	heapPeak  float64 // bytes
	pre, post serve.Snapshot
	allocs    uint64 // heap bytes allocated
	gcs       uint64 // GC cycles
	retries   int64  // client retries
	requests  int64  // client calls
}

// daemonConfig is the daemon a workload runs against. Only tier-churn
// has a durable store.
func daemonConfig(workload, tierDir, fsync string) serve.Config {
	if workload != tierChurn {
		return serve.Config{}
	}
	return serve.Config{
		CacheBytes:        churnPlanCacheBytes,
		RespCacheBytes:    churnRespCacheBytes,
		DiskCacheDir:      tierDir,
		DiskMemtableBytes: churnMemtableBytes,
		Fsync:             fsync,
		ScrubInterval:     -1,
	}
}

// run sets up, times and checks one workload.
func run(ctx context.Context, opt options) (*report, error) {
	w, err := generate(opt.workload, opt.seed, opt.seconds)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(opt.work, "run-")
	if err != nil {
		return nil, err
	}
	// Writeback of dirty pages left by an earlier phase or process would
	// land in a later timed phase's fsyncs, so the run flushes them before
	// each timed or set-up phase and after deleting its files.
	syscall.Sync()
	defer func() {
		os.RemoveAll(work)
		syscall.Sync()
	}()
	tdir := filepath.Join(work, "tier")
	rep := &report{}
	ans := newAnswers(len(w.Keys))
	v := newVerifier(w.Keys)
	untimedLimit := time.Now().Add(2 * time.Minute)

	// Tier-churn's fill is untimed, so it runs without fsync; the stopped
	// daemon's store syncs its WAL on Close, and the restarts below open it
	// with fsync=always.
	if w.Name == tierChurn {
		d, _, err := startDaemon(ctx, daemonConfig(w.Name, tdir, "never"), nil)
		if err != nil {
			return nil, err
		}
		fill := drive(ctx, d.newClients(), nil, w, warmOps(w), ans, untimedLimit)
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("stopping fill daemon: %w", err)
		}
		if fill.failed > 0 {
			return nil, fmt.Errorf("filling the tier: %d failures, first: %s", fill.failed, fill.problems[0])
		}
		v.check(ans)
		syscall.Sync()
	}

	var tr *tracer
	if opt.trace {
		tr = &tracer{}
	}
	// A daemon with a durable store restarts on its directory setupRepeats
	// times before timing. One without is set up once more before each
	// window instead, so its set-up median spans the run like the other
	// figures rather than one moment of it.
	cfg := daemonConfig(w.Name, tdir, "always")
	restarts := 1
	if cfg.DiskCacheDir != "" {
		restarts = setupRepeats
	}
	var d *daemon
	var setups []float64
	for i := 0; i < restarts; i++ {
		runtime.GC()
		var dt time.Duration
		d, dt, err = startDaemon(ctx, cfg, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, dt.Seconds())
		if i < restarts-1 {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stopping daemon: %w", err)
			}
		}
	}
	defer d.stop()
	var setupAgain func() error
	if cfg.DiskCacheDir == "" {
		setupAgain = func() error {
			runtime.GC()
			extra, dt, err := startDaemon(ctx, cfg, nil)
			if err != nil {
				return err
			}
			setups = append(setups, dt.Seconds())
			return extra.stop()
		}
	}
	cs := d.newClients()

	// Hit-hot warms its keys into the caches; miss-cold fills the plan
	// cache and grows the heap with keys it never times.
	if w.Name != tierChurn && len(w.Warm) > 0 {
		warm := drive(ctx, cs, nil, w, warmOps(w), ans, untimedLimit)
		if warm.failed > 0 {
			return nil, fmt.Errorf("warming: %d failures, first: %s", warm.failed, warm.problems[0])
		}
		v.check(ans)
	}

	syscall.Sync()
	runtime.GC()
	// Ops not started within the limit count as failed; it is far above
	// any healthy run's length.
	limit := max(time.Minute, time.Duration(6*opt.seconds)*time.Second)
	wins, err := timed(ctx, rep, w, d, cs, ans, v, time.Now().Add(limit), setupAgain)
	if err != nil {
		return nil, err
	}
	all := &phase{}
	for _, win := range wins {
		all.add(win.p)
	}
	rep.attempted = all.ops
	rep.failed = all.failed
	rep.problems = append(rep.problems, all.problems...)
	if opt.trace {
		if err := layerMetrics(ctx, rep, opt, w, tr, wins); err != nil {
			return nil, err
		}
	} else {
		endToEnd(rep, wins, setups)
	}
	oracle(rep, w, ans, v)
	return rep, nil
}

func warmOps(w *Workload) []Op {
	ops := make([]Op, len(w.Warm))
	for i, k := range w.Warm {
		ops[i] = Op{Key: k, Fresh: w.Name == tierChurn}
	}
	return ops
}

// timed drives the timed ops window by window, recording the daemon's
// counters and the process's runtime counters around each, and runs the
// oracle over each window's new answers after it. before, when set, runs
// ahead of every window.
func timed(ctx context.Context, rep *report, w *Workload, d *daemon, cs []*client.Client, ans *answers, v *verifier, stopAt time.Time, before func() error) ([]window, error) {
	wins := make([]window, windows)
	for i := range wins {
		if before != nil {
			if err := before(); err != nil {
				return nil, err
			}
		}
		win := &wins[i]
		ops := w.Ops[i*len(w.Ops)/windows : (i+1)*len(w.Ops)/windows]
		win.ops = ops
		win.traced = d.tracer != nil && i%2 == 1
		if d.tracer != nil {
			d.tracer.on.Store(win.traced)
		}
		win.pre = d.srv.Metrics()
		a0, g0 := runtimeCounters()
		r0, q0 := clientCounters(cs)
		peak := sampleHeap()
		win.p = drive(ctx, cs, d.tracer, w, ops, ans, stopAt)
		win.heapPeak = peak()
		a1, g1 := runtimeCounters()
		r1, q1 := clientCounters(cs)
		win.post = d.srv.Metrics()
		if d.tracer != nil {
			d.tracer.on.Store(false)
		}
		win.allocs, win.gcs = a1-a0, g1-g0
		win.retries, win.requests = r1-r0, q1-q0
		checkCounters(rep, w, ops, win.pre, win.post)
		v.check(ans)
	}
	return wins, nil
}

// checkCounters asserts the isolation each workload promises, from the
// daemon's own counters over some timed ops: hit-hot computes nothing,
// miss-cold computes once per request, tier-churn exactly once per fresh
// key (a re-touch never recomputes) and serves re-touches from disk.
func checkCounters(rep *report, w *Workload, ops []Op, pre, post serve.Snapshot) {
	computed := post.PlanComputations - pre.PlanComputations
	want := int64(freshOps(ops))
	if computed != want {
		rep.problem("%s: daemon computed %d plans over %d timed ops, want %d", w.Name, computed, len(ops), want)
	}
	if w.Name == tierChurn && post.TieredDiskHits == pre.TieredDiskHits {
		rep.problem("tier-churn: no re-touch in a window was served from the disk tier")
	}
}

func freshOps(ops []Op) int {
	n := 0
	for _, op := range ops {
		if op.Fresh {
			n++
		}
	}
	return n
}

// oracle finishes checking every distinct answer against a direct
// recomputation and counts every op on a wrong key as failed.
func oracle(rep *report, w *Workload, ans *answers, v *verifier) {
	v.check(ans)
	_, differ := ans.merged()
	for _, k := range differ {
		rep.problem("%s: the two clients got different answers", w.Keys[k].ResponseKey())
	}
	wrong := map[int]bool{}
	for k, msg := range v.bad {
		if msg != "" {
			wrong[k] = true
			if len(rep.problems) < maxProblems {
				rep.problem("%s", msg)
			}
		}
	}
	for _, op := range w.Ops {
		if wrong[op.Key] {
			rep.failed++
		}
	}
}

// p99Note says why latency_p99_ms is printed but left out of the result.
const p99Note = "left out of BENCHMARK.json as unsteady: on one P of a 2-vCPU VM with noisy neighbours its ten-seed " +
	"IQR/median was 0.14 on hit-hot and 0.04 on miss-cold; on two Ps it reached 0.23 and 0.20, and hit-hot's median " +
	"moved 54% between two sets of the same code"

// endToEnd adds the untraced run's metrics, each a median over the
// windows. A p99 needs 1010 samples for ten beyond it, so when windows
// are smaller it is the median over runs of consecutive windows that are
// large enough.
func endToEnd(rep *report, wins []window, setups []float64) {
	var tput, p50, heap []float64
	n := 0
	for _, win := range wins {
		lat := sortedMillis(win.p.lat)
		n += len(lat)
		tput = append(tput, float64(len(lat))/win.p.elapsed.Seconds())
		heap = append(heap, win.heapPeak/(1<<20))
		if v, err := percentile(lat, 50); err == nil {
			p50 = append(p50, v)
		} else {
			rep.problem("latency_p50_ms: %v", err)
		}
	}
	need := 100*minBeyond + minBeyond // samples for a p99 with minBeyond past it
	perWindow := max(1, n/len(wins))
	groups := max(1, len(wins)/((need+perWindow-1)/perWindow))
	var p99 []float64
	for g := 0; g < groups; g++ {
		pooled := &phase{}
		for _, win := range wins[g*len(wins)/groups : (g+1)*len(wins)/groups] {
			pooled.add(win.p)
		}
		v, err := percentile(sortedMillis(pooled.lat), 99)
		if err != nil {
			rep.problem("latency_p99_ms: %v", err)
			continue
		}
		p99 = append(p99, v)
	}
	rep.add("throughput_rps", "1/s", median(tput), fmt.Sprintf("median of %d windows", len(wins)))
	rep.add("latency_p50_ms", "ms", median(p50), fmt.Sprintf("median of %d window p50s, %d samples", len(wins), n))
	rep.note("%-36s %14.6f ms  (median of %d p99s over %d-window runs, %d samples; %s)",
		"latency_p99_ms", median(p99), groups, len(wins)/groups, n, p99Note)
	rep.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	rep.add("heap_peak_mb", "MiB", median(heap), "median of window peaks")
}

// sampleHeap polls the live heap every millisecond until the returned
// function is called, which stops the poller and returns the peak bytes.
func sampleHeap() func() float64 {
	stop := make(chan struct{})
	var peak uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return float64(peak)
	}
}

// runtimeCounters reads the process's allocation and GC counters.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func clientCounters(cs []*client.Client) (retries, requests int64) {
	for _, c := range cs {
		s := c.Stats()
		retries += s.Retries
		requests += s.Requests
	}
	return retries, requests
}

// layerMetrics adds the traced run's per-layer metrics: serve, client,
// pool and runtime figures from the traced windows, then the planner
// stages from a replay of miss-cold's keys and the tier from a replay of
// tier-churn's operations (both for this run's seed, whatever the
// workload).
func layerMetrics(ctx context.Context, rep *report, opt options, w *Workload, tr *tracer, wins []window) error {
	var computed, encodedHits, evictions, retries, requests int64
	var allocs, gcs uint64
	var fresh int
	traced, plain := &phase{}, &phase{}
	for _, win := range wins {
		if !win.traced {
			plain.add(win.p)
			continue
		}
		traced.add(win.p)
		computed += win.post.PlanComputations - win.pre.PlanComputations
		encodedHits += win.post.EncodedHits - win.pre.EncodedHits
		evictions += win.post.CacheEvictions - win.pre.CacheEvictions
		allocs += win.allocs
		gcs += win.gcs
		retries += win.retries
		requests += win.requests
		fresh += freshOps(win.ops)
	}

	t := tr.snapshot()
	n := float64(t.requests)
	hl := sortedMillis(t.handler)
	for _, pc := range []struct {
		name string
		p    float64
	}{{"serve.handler_p50_ms", 50}, {"serve.handler_p99_ms", 99}} {
		v, err := percentile(hl, pc.p)
		if err != nil {
			rep.problem("%s: %v", pc.name, err)
			continue
		}
		rep.add(pc.name, "ms", v, fmt.Sprintf("%d samples", len(hl)))
	}
	encRatio := ratio(float64(encodedHits), n)
	perReq := ratio(float64(computed), n)
	rep.add("serve.encoded_hit_ratio", "ratio", encRatio, "")
	rep.add("serve.computations_per_request", "ratio", perReq, "")
	rep.add("serve.bytes_per_response", "bytes", ratio(float64(t.bytes), n), "")
	rep.add("serve.cache_evictions_per_request", "ratio", ratio(float64(evictions), n), "")
	over := sortedMillis(traced.overhead)
	if v, err := percentile(over, 50); err != nil {
		rep.problem("client.overhead_p50_ms: %v", err)
	} else {
		rep.add("client.overhead_p50_ms", "ms", v, fmt.Sprintf("%d samples", len(over)))
	}
	rep.add("client.retry_ratio", "ratio", ratio(float64(retries), float64(requests)), "")
	rep.add("pool.shed_ratio", "ratio", ratio(float64(t.shed), n), "503 + Retry-After answers per request")
	rep.add("runtime.alloc_bytes_per_request", "bytes", ratio(float64(allocs), n), "client and daemon share the process")
	rep.add("runtime.gc_cycles_per_1k_requests", "count", 1000*ratio(float64(gcs), n), "")
	overhead := ratio(float64(len(traced.lat))/traced.elapsed.Seconds(), float64(len(plain.lat))/plain.elapsed.Seconds())
	rep.add("trace.overhead_ratio", "ratio", overhead, "traced over untraced throughput")

	// The serve counters must show the isolation the workload promises.
	switch w.Name {
	case hitHot:
		if perReq != 0 || encRatio != 1 {
			rep.problem("hit-hot: computations_per_request %g and encoded_hit_ratio %g, want 0 and 1", perReq, encRatio)
		}
	case missCold:
		if perReq != 1 {
			rep.problem("miss-cold: computations_per_request %g, want 1", perReq)
		}
	case tierChurn:
		if computed != int64(fresh) {
			rep.problem("tier-churn: %d computations for %d fresh keys: re-touches recomputed", computed, fresh)
		}
	}

	// The replays are time-boxed; they draw on at least the ten-second
	// sequences so a short run still has puts enough for a p99.
	budget := max(time.Second, time.Duration(opt.seconds)*time.Second/5)
	replaySeconds := max(opt.seconds, 10)
	mw, err := generate(missCold, opt.seed, replaySeconds)
	if err != nil {
		return err
	}
	pr, err := replayPlanner(ctx, mw, budget)
	if err != nil {
		return fmt.Errorf("planner replay: %w", err)
	}
	plannerMetrics(rep, pr)

	cw, err := generate(tierChurn, opt.seed, replaySeconds)
	if err != nil {
		return err
	}
	tierRep, err := replayTier(cw, filepath.Join(opt.work, "tier-replay"), budget)
	if err != nil {
		return fmt.Errorf("tier replay: %w", err)
	}
	tierMetrics(rep, tierRep)
	return nil
}

func plannerMetrics(rep *report, pr *plannerReport) {
	sum := pr.stageSum()
	counts := map[string]metric{
		"kernels.structure_ms": {name: "kernels.points", value: pr.points},
		"project.project_ms":   {name: "project.points", value: pr.projPts},
		"core.partition_ms":    {name: "core.blocks", value: pr.blocks},
		"core.tig_ms":          {name: "core.tig_edges", value: pr.tigEdges},
	}
	for _, name := range stageNames {
		v := pr.stageMS[name]
		rep.add(name, "ms", v, fmt.Sprintf("%.1f%% of the stage sum", 100*ratio(v, sum)))
		if c, ok := counts[name]; ok {
			rep.add(c.name, "count", c.value, "mean per request")
		}
	}
	rep.add("mapping.evaluate_ms", "ms", pr.evalMS, "response building, outside NewPlanCtx")
	rep.add("loopmap.newplan_ms", "ms", pr.newPlan, fmt.Sprintf("%d requests replayed", pr.requests))
	cov := pr.coverage
	rep.add("loopmap.stage_coverage", "ratio", cov, fmt.Sprintf("median per-request stage sum over NewPlanCtx, tolerance ±%g", coverageTolerance))
	if cov < 1-coverageTolerance || cov > 1+coverageTolerance {
		rep.problem("loopmap.stage_coverage %.3f outside 1 ± %g", cov, coverageTolerance)
	}
}

func tierMetrics(rep *report, tr *tierReport) {
	puts := sortedMillis(tr.puts)
	gets := sortedMillis(tr.gets)
	for _, pc := range []struct {
		name    string
		samples []float64
		p       float64
	}{{"tiered.put_p50_ms", puts, 50}, {"tiered.put_p99_ms", puts, 99}, {"tiered.get_p50_ms", gets, 50}} {
		v, err := percentile(pc.samples, pc.p)
		if err != nil {
			rep.problem("%s: %v", pc.name, err)
			continue
		}
		rep.add(pc.name, "ms", v, fmt.Sprintf("%d samples", len(pc.samples)))
	}
	rep.add("tiered.open_s", "s", tr.openS, fmt.Sprintf("median of %d opens", setupRepeats))
	b, a := tr.before, tr.after
	lookups := float64(a.DiskHits + a.DiskMisses - b.DiskHits - b.DiskMisses)
	rep.add("tiered.disk_hit_ratio", "ratio", ratio(float64(a.DiskHits-b.DiskHits), lookups), "")
	rep.add("tiered.bloom_negative_ratio", "1/lookup", ratio(float64(a.BloomNegatives-b.BloomNegatives), lookups), "segment probes a bloom filter answered, per lookup")
	kputs := float64(len(tr.puts)) / 1000
	rep.add("tiered.flushes_per_1k_puts", "count", ratio(float64(a.Flushes-b.Flushes), kputs), "")
	rep.add("tiered.compactions_per_1k_puts", "count", ratio(float64(a.Compactions-b.Compactions), kputs), "")
	rep.add("tiered.get_panics", "count", float64(tr.getPanics), "Gets that raced a compaction closing their segment")
}
