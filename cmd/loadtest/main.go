// Command loadtest is the seeded load generator for loopmapd: it drives
// the daemon's plan-serving path through the public client (client.Multi,
// so cluster targets work too) and reports latency percentiles and
// throughput per workload, machine-readable in the shared
// internal/benchparse schema.
//
// Workloads:
//
//	hit-heavy:  a small fixed key population — after one warm pass every
//	            request rides the encoded-response fast path
//	miss-heavy: a churning key stream — almost every request computes
//	single:     the mixed key population, one request per round trip
//	batch:      the same population through /v1/batch, -batch items per
//	            round trip (compare its rps against single's)
//	mixed:      80% population hits, 20% fresh keys
//	coldset:    larger-than-RAM keyspace against the tiered disk store —
//	            fill a keyspace far past tiny RAM budgets, then re-touch
//	            it Zipf-skewed and assert zero recomputations (every
//	            re-touch is a RAM hit or a disk-tier promotion); always
//	            self-hosted, reported separately (the BENCH_10 suite)
//	all:        every workload above except coldset, sequentially (the
//	            BENCH_6 suite)
//
// With no -target the daemon runs in-process on a loopback listener, so
// the tool is self-contained: `go run ./cmd/loadtest -o BENCH_6.json`.
// Rate 0 is closed-loop (saturation throughput: -conc workers back to
// back); -rate > 0 is open-loop with seeded exponential interarrivals,
// and latency then includes queueing delay, as an arriving request would
// see it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/benchparse"
	"repro/internal/serve"
)

type options struct {
	targets  string
	workload string
	duration time.Duration
	rate     float64
	conc     int
	batch    int
	keys     int
	seed     int64
	out      string
}

func main() {
	var opt options
	flag.StringVar(&opt.targets, "target", "", "comma-separated daemon base URLs (empty: run one in-process)")
	flag.StringVar(&opt.workload, "workload", "all", "hit-heavy | miss-heavy | single | batch | mixed | coldset | all")
	flag.DurationVar(&opt.duration, "duration", 2*time.Second, "measured run length per workload")
	flag.Float64Var(&opt.rate, "rate", 0, "offered load in requests/s (0: closed-loop saturation)")
	flag.IntVar(&opt.conc, "conc", 32, "concurrent workers")
	flag.IntVar(&opt.batch, "batch", 16, "items per /v1/batch round trip in the batch workload")
	flag.IntVar(&opt.keys, "keys", 48, "distinct keys in the fixed population")
	flag.Int64Var(&opt.seed, "seed", 1, "deterministic workload seed")
	flag.StringVar(&opt.out, "o", "", "write results as benchparse JSON to this file")
	flag.Parse()

	if opt.workload == "coldset" {
		// Coldset measures the daemon's disk tier from the inside (it
		// asserts on server-side computation counters), so it always runs
		// against its own in-process daemon.
		if opt.targets != "" {
			fail(fmt.Errorf("the coldset workload is always self-hosted; drop -target"))
		}
		res, err := runColdset(context.Background(), opt)
		if err != nil {
			fail(fmt.Errorf("workload coldset: %w", err))
		}
		res.print(os.Stdout)
		if opt.out != "" {
			doc := benchparse.New()
			doc.Add(res.record())
			if err := doc.WriteFile(opt.out); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "loadtest: wrote coldset results to %s\n", opt.out)
		}
		return
	}

	endpoints := splitTargets(opt.targets)
	if len(endpoints) == 0 {
		url, stop, err := selfHost()
		if err != nil {
			fail(err)
		}
		defer stop()
		endpoints = []string{url}
	}
	m, err := client.NewMulti(client.MultiConfig{Endpoints: endpoints})
	if err != nil {
		fail(err)
	}
	ctx := context.Background()
	if err := m.Ready(ctx); err != nil {
		fail(fmt.Errorf("target not ready: %w", err))
	}

	workloads := []string{"hit-heavy", "miss-heavy", "single", "batch", "mixed"}
	if opt.workload != "all" {
		workloads = []string{opt.workload}
	}
	doc := benchparse.New()
	for _, w := range workloads {
		res, err := runWorkload(ctx, m, w, opt)
		if err != nil {
			fail(fmt.Errorf("workload %s: %w", w, err))
		}
		res.print(os.Stdout)
		doc.Add(res.record())
	}
	if opt.out != "" {
		if err := doc.WriteFile(opt.out); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "loadtest: wrote %d workloads to %s\n", len(doc.Benchmarks), opt.out)
	}
}

func splitTargets(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// selfHost boots an in-process daemon on a loopback listener.
func selfHost() (url string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: serve.New(serve.Config{}).Handler()}
	go srv.Serve(l)
	return "http://" + l.Addr().String(), func() { srv.Close() }, nil
}

// freshKeys hands out distinct canonical keys across all workers: each
// take() enumerates the next point of an ~8000-key space (sizes within
// the daemon's default MaxKernelSize, merge factors, aux toggles, cube
// dims), so a miss-heavy stream stays miss-heavy for a whole run.
type freshKeys struct{ n atomic.Int64 }

func (f *freshKeys) take() *api.PlanRequest {
	idx := f.n.Add(1)
	size := 16 + idx%113
	idx /= 113
	kernel := []string{"l1", "matmul"}[idx%2]
	idx /= 2
	merge := 1 + idx%6
	idx /= 6
	noAux := idx%2 == 1
	idx /= 2
	d := 2 + int(idx%3)
	return &api.PlanRequest{
		Kernel: kernel, Size: size, CubeDim: &d,
		MergeFactor: merge, NoAux: noAux,
	}
}

// genFor builds a workload's request generator. Each call to the
// returned function yields the next request batch (size 1 except for the
// batch workload) from one worker's deterministic stream.
func genFor(workload string, opt options, worker int, fresh *freshKeys) func() []*api.PlanRequest {
	rng := rand.New(rand.NewSource(opt.seed + int64(worker)*7919))
	kernels := []string{"l1", "matmul"}
	population := func() *api.PlanRequest {
		d := 2 + rng.Intn(3)
		return &api.PlanRequest{
			Kernel:  kernels[rng.Intn(len(kernels))],
			Size:    int64(4 + rng.Intn(opt.keys/2)),
			CubeDim: &d,
		}
	}
	one := func(f func() *api.PlanRequest) func() []*api.PlanRequest {
		return func() []*api.PlanRequest { return []*api.PlanRequest{f()} }
	}
	switch workload {
	case "hit-heavy":
		return one(population)
	case "miss-heavy":
		return one(fresh.take)
	case "single":
		return one(population)
	case "batch":
		return func() []*api.PlanRequest {
			out := make([]*api.PlanRequest, opt.batch)
			for i := range out {
				out[i] = population()
			}
			return out
		}
	case "mixed":
		return one(func() *api.PlanRequest {
			if rng.Float64() < 0.8 {
				return population()
			}
			return fresh.take()
		})
	}
	return nil
}

// result is one workload's measurements.
type result struct {
	workload  string
	elapsed   time.Duration
	requests  int64 // plan responses received (batch items count individually)
	trips     int64 // HTTP round trips
	errors    int64
	hits      int64 // responses served from a cache (hit or shared)
	latencies []time.Duration
	extra     map[string]float64 // workload-specific metrics merged into the record
}

func runWorkload(ctx context.Context, m *client.Multi, workload string, opt options) (*result, error) {
	fresh := &freshKeys{}
	if genFor(workload, opt, 0, fresh) == nil {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}

	// Warm pass for the hit-heavy workload: the measured run should see
	// the steady state, not the one-time fill.
	if workload == "hit-heavy" {
		warm := genFor(workload, opt, 0, fresh)
		for i := 0; i < opt.keys*2; i++ {
			if _, err := m.Plan(ctx, warm()[0]); err != nil {
				return nil, fmt.Errorf("warming: %w", err)
			}
		}
	}

	res := &result{workload: workload}
	var mu sync.Mutex
	var requests, trips, errors, hits atomic.Int64

	// Open-loop arrivals: one dispatcher stamps scheduled times on a
	// channel; worker latency is measured from the scheduled arrival, so
	// queueing under overload shows up in the percentiles. Closed loop
	// (rate 0) measures pure service time.
	var arrivals chan time.Time
	stop := make(chan struct{})
	if opt.rate > 0 {
		arrivals = make(chan time.Time, opt.conc*4)
		arrival := rand.New(rand.NewSource(opt.seed ^ 0x5eed))
		go func() {
			defer close(arrivals)
			next := time.Now()
			for {
				select {
				case <-stop:
					return
				default:
				}
				interval := time.Duration(arrival.ExpFloat64() * float64(time.Second) / opt.rate)
				next = next.Add(interval)
				time.Sleep(time.Until(next))
				select {
				case arrivals <- next:
				case <-stop:
					return
				}
			}
		}()
	}

	start := time.Now()
	deadline := start.Add(opt.duration)
	var wg sync.WaitGroup
	for w := 0; w < opt.conc; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := genFor(workload, opt, w, fresh)
			var local []time.Duration
			for {
				var from time.Time
				if arrivals != nil {
					t, ok := <-arrivals
					if !ok {
						break
					}
					from = t
				} else {
					if time.Now().After(deadline) {
						break
					}
					from = time.Now()
				}
				reqs := gen()
				trips.Add(1)
				if len(reqs) == 1 {
					pr, err := m.Plan(ctx, reqs[0])
					if err != nil {
						errors.Add(1)
					} else {
						requests.Add(1)
						if pr.Cache != api.CacheMiss {
							hits.Add(1)
						}
					}
				} else {
					// Raw envelope: decoding 16 response bodies per trip would
					// burn generator CPU (shared with a self-hosted daemon) and
					// measure the client, not the daemon. One sampled item per
					// trip keeps the hit ratio honest.
					items := make([]api.BatchItem, len(reqs))
					for i, pr := range reqs {
						items[i] = api.BatchItem{Plan: pr}
					}
					br, err := m.Batch(ctx, &api.BatchRequest{Items: items})
					if err != nil {
						errors.Add(int64(len(reqs)))
					} else {
						sampled := false
						for i := range br.Results {
							if br.Results[i].Status != http.StatusOK {
								errors.Add(1)
								continue
							}
							requests.Add(1)
							if !sampled {
								sampled = true
								var pr api.PlanResponse
								if json.Unmarshal(br.Results[i].Body, &pr) == nil && pr.Cache != api.CacheMiss {
									hits.Add(int64(len(br.Results)))
								}
							}
						}
					}
				}
				local = append(local, time.Since(from))
				if arrivals == nil && time.Now().After(deadline) {
					break
				}
			}
			mu.Lock()
			res.latencies = append(res.latencies, local...)
			mu.Unlock()
		}()
	}
	if arrivals != nil {
		time.Sleep(opt.duration)
		close(stop)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.requests = requests.Load()
	res.trips = trips.Load()
	res.errors = errors.Load()
	res.hits = hits.Load()
	if res.requests == 0 {
		return nil, fmt.Errorf("no request succeeded (%d errors)", res.errors)
	}
	return res, nil
}

// coldReq maps a key index to its deterministic plan request. Fill and
// re-touch both enumerate through it, so index i names the same canonical
// key in both phases. The space holds 1332 distinct keys (37 sizes x 2
// kernels x 3 merge factors x 2 aux toggles x 3 cube dims).
const coldKeySpace = 37 * 2 * 3 * 2 * 3

func coldReq(i int) *api.PlanRequest {
	idx := i
	size := int64(4 + idx%37)
	idx /= 37
	kernel := []string{"l1", "matmul"}[idx%2]
	idx /= 2
	merge := int64(1 + idx%3)
	idx /= 3
	noAux := idx%2 == 1
	idx /= 2
	d := 2 + idx%3
	return &api.PlanRequest{
		Kernel: kernel, Size: size, CubeDim: &d,
		MergeFactor: merge, NoAux: noAux,
	}
}

// runColdset drives the larger-than-RAM workload: an in-process daemon
// with deliberately tiny RAM budgets (1 MiB plan cache, 256 KiB encoded
// cache) and a temp-dir disk tier is filled with a keyspace far past
// those budgets, then re-touched with a Zipf-skewed draw for -duration.
// The measured phase must recompute nothing: every re-touch is either
// still warm in RAM or promoted back from the disk tier, which the run
// asserts via the daemon's own plan-computation counter. First touches of
// a key during the measured phase are overwhelmingly disk promotions, so
// their percentile is reported separately as disk-p95-ms.
func runColdset(ctx context.Context, opt options) (*result, error) {
	keys := opt.keys * 24
	if keys > coldKeySpace {
		keys = coldKeySpace
	}
	if keys < 64 {
		keys = 64
	}

	dir, err := os.MkdirTemp("", "loadtest-coldset-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv := serve.New(serve.Config{
		CacheBytes:        1 << 20,
		RespCacheBytes:    256 << 10,
		DiskCacheDir:      dir,
		DiskMemtableBytes: 64 << 10,
		ScrubInterval:     -1,
	})
	defer srv.Close()
	if _, err := srv.Recover(ctx); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(l)
	defer hs.Close()
	m, err := client.NewMulti(client.MultiConfig{Endpoints: []string{"http://" + l.Addr().String()}})
	if err != nil {
		return nil, err
	}

	// Fill: every key computed exactly once, write-through to the tier.
	var next atomic.Int64
	var fillErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < opt.conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= keys {
					return
				}
				if _, err := m.Plan(ctx, coldReq(i)); err != nil {
					fillErr.CompareAndSwap(nil, fmt.Errorf("filling key %d: %w", i, err))
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := fillErr.Load().(error); err != nil {
		return nil, err
	}
	pre := srv.Metrics()
	if pre.TieredKeys < int64(keys) {
		return nil, fmt.Errorf("tier holds %d keys after filling %d — write-through demotion is broken", pre.TieredKeys, keys)
	}

	// Re-touch: Zipf-skewed draws over the filled keyspace. The skew keeps
	// popular keys RAM-resident while the long tail faults in from disk.
	res := &result{workload: "coldset"}
	var mu sync.Mutex
	var coldLat []time.Duration
	touched := make([]atomic.Bool, keys)
	var requests, errors, hits atomic.Int64
	deadline := time.Now().Add(opt.duration)
	start := time.Now()
	for w := 0; w < opt.conc; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opt.seed + int64(w)*7919))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(keys-1))
			var local, localCold []time.Duration
			for time.Now().Before(deadline) {
				i := int(zipf.Uint64())
				first := touched[i].CompareAndSwap(false, true)
				from := time.Now()
				pr, err := m.Plan(ctx, coldReq(i))
				d := time.Since(from)
				if err != nil {
					errors.Add(1)
					continue
				}
				requests.Add(1)
				if pr.Cache != api.CacheMiss {
					hits.Add(1)
				}
				local = append(local, d)
				if first {
					localCold = append(localCold, d)
				}
			}
			mu.Lock()
			res.latencies = append(res.latencies, local...)
			coldLat = append(coldLat, localCold...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.requests = requests.Load()
	res.trips = res.requests
	res.errors = errors.Load()
	res.hits = hits.Load()
	if res.requests == 0 {
		return nil, fmt.Errorf("no re-touch succeeded (%d errors)", res.errors)
	}

	post := srv.Metrics()
	recomputes := post.PlanComputations - pre.PlanComputations
	diskHits := post.TieredDiskHits - pre.TieredDiskHits
	sort.Slice(coldLat, func(i, j int) bool { return coldLat[i] < coldLat[j] })
	res.extra = map[string]float64{
		"keyspace":    float64(keys),
		"recomputes":  float64(recomputes),
		"disk-hits":   float64(diskHits),
		"segments":    float64(post.TieredSegments),
		"disk-p95-ms": float64(pct(coldLat, 95)) / float64(time.Millisecond),
	}
	fmt.Fprintf(os.Stderr, "loadtest: coldset keyspace=%d segments=%d disk-hits=%d recomputes=%d cold-touches=%d\n",
		keys, post.TieredSegments, diskHits, recomputes, len(coldLat))
	if recomputes != 0 {
		return nil, fmt.Errorf("%d plans recomputed during re-touch — the disk tier should have served them", recomputes)
	}
	if diskHits == 0 {
		return nil, fmt.Errorf("no re-touch was served from the disk tier (keyspace %d)", keys)
	}
	return res, nil
}

// pct returns the p-th percentile of the sorted latency set.
func pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)-1))
	return sorted[i]
}

func (r *result) sorted() []time.Duration {
	s := append([]time.Duration(nil), r.latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func (r *result) rps() float64 { return float64(r.requests) / r.elapsed.Seconds() }

func (r *result) print(w *os.File) {
	s := r.sorted()
	fmt.Fprintf(w, "%-10s  %8.0f req/s  %7d req  %4d err  hit %4.1f%%  p50 %s  p95 %s  p99 %s\n",
		r.workload, r.rps(), r.requests, r.errors,
		100*float64(r.hits)/float64(r.requests),
		pct(s, 50).Round(time.Microsecond), pct(s, 95).Round(time.Microsecond),
		pct(s, 99).Round(time.Microsecond))
}

// record renders the result in the benchparse schema, one pseudo
// benchmark per workload.
func (r *result) record() benchparse.Result {
	s := r.sorted()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	res := benchparse.Result{
		Name: "Loadtest/" + r.workload,
		Runs: r.requests,
		Metrics: map[string]float64{
			"rps":       r.rps(),
			"trips":     float64(r.trips),
			"errors":    float64(r.errors),
			"hit-ratio": float64(r.hits) / float64(r.requests),
			"p50-ms":    ms(pct(s, 50)),
			"p95-ms":    ms(pct(s, 95)),
			"p99-ms":    ms(pct(s, 99)),
			"max-ms":    ms(pct(s, 100)),
		},
	}
	for k, v := range r.extra {
		res.Metrics[k] = v
	}
	return res
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "loadtest:", err)
	os.Exit(1)
}
