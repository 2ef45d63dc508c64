// Command crashtest is the kill/restart chaos harness for loopmapd's
// durable plan store.
//
// It builds the daemon, starts it with a durable -disk-cache-dir (fsync
// always, so concurrent writes share group-commit fsyncs), drives
// concurrent mixed /v1/plan + /v1/simulate load through the resilient
// client, SIGKILLs the process mid-write, restarts it from the same
// directory, and then asserts the crash-safety contract:
//
//   - every request that succeeded before the kill is served warm
//     (cache outcome "hit") by the restarted daemon;
//   - its response is byte-identical to the pre-crash one (modulo the
//     cache field itself);
//   - no response, before or after the crash, is ever corrupt;
//   - the restarted daemon still shuts down cleanly on SIGTERM.
//
// The workload is generated from -seed, so a run is reproducible. CI
// runs a short deterministic version (`make crash`).
//
//	crashtest -requests 64 -seed 1
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/api"
	"repro/client"
)

func main() {
	bin := flag.String("bin", "", "loopmapd binary (default: go build it to a temp dir)")
	stateDir := flag.String("disk-cache-dir", "", "durable store directory (default: a temp dir, removed on success)")
	requests := flag.Int("requests", 64, "total requests in the mixed load")
	workers := flag.Int("workers", 8, "concurrent client goroutines")
	seed := flag.Int64("seed", 1, "workload generator seed (runs are reproducible per seed)")
	keep := flag.Bool("keep", false, "keep the state directory after a successful run")
	flag.Parse()

	if err := run(*bin, *stateDir, *requests, *workers, *seed, *keep); err != nil {
		fmt.Fprintln(os.Stderr, "crashtest: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("crashtest: PASS")
}

func run(bin, stateDir string, requests, workers int, seed int64, keep bool) error {
	if requests < 8 {
		return fmt.Errorf("need at least 8 requests, got %d", requests)
	}
	if bin == "" {
		built, cleanup, err := buildDaemon()
		if err != nil {
			return err
		}
		defer cleanup()
		bin = built
	}
	if stateDir == "" {
		dir, err := os.MkdirTemp("", "crashtest-state-*")
		if err != nil {
			return err
		}
		stateDir = dir
		if !keep {
			defer os.RemoveAll(dir)
		}
	}
	fmt.Printf("crashtest: store dir %s, %d requests, seed %d\n", stateDir, requests, seed)

	// --- Phase 1: cold daemon under load, SIGKILLed mid-write. ---
	d, err := startDaemon(bin, stateDir)
	if err != nil {
		return fmt.Errorf("phase 1 start: %w", err)
	}
	defer d.kill() // no-op once the process is gone

	c1 := newClient(d.addr)
	if err := waitReady(c1); err != nil {
		return fmt.Errorf("phase 1 ready: %w", err)
	}

	load := generateWorkload(requests, seed)
	rec := &recorder{byKey: make(map[string]recorded)}
	killAt := requests / 2
	killed := make(chan struct{})
	var killOnce sync.Once

	var wg sync.WaitGroup
	items := make(chan workItem)
	var done, failed atomic.Int64
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				err := issue(c1, it, rec)
				if err != nil {
					failed.Add(1)
				}
				if int(done.Add(1)) >= killAt {
					killOnce.Do(func() {
						fmt.Printf("crashtest: SIGKILL after %d/%d requests\n", done.Load(), requests)
						d.kill()
						close(killed)
					})
				}
			}
		}()
	}
	for _, it := range load {
		items <- it
	}
	close(items)
	wg.Wait()
	<-killed // the pool finished, so the kill must have fired

	pre := rec.snapshot()
	fmt.Printf("crashtest: pre-kill: %d ok (%d unique responses recorded), %d failed after the kill window\n",
		done.Load()-failed.Load(), len(pre), failed.Load())
	if len(pre) == 0 {
		return fmt.Errorf("no request succeeded before the kill — nothing to verify")
	}

	// --- Phase 2: restart from the same state dir; assert warm identity. ---
	d2, err := startDaemon(bin, stateDir)
	if err != nil {
		return fmt.Errorf("phase 2 start: %w", err)
	}
	defer d2.kill()
	c2 := newClient(d2.addr)
	if err := waitReady(c2); err != nil {
		return fmt.Errorf("phase 2 ready: %w", err)
	}
	if warm := d2.warmLine(); warm != "" {
		fmt.Println("crashtest:", warm)
	}

	var coldMisses, mismatches int
	for key, want := range pre {
		got, outcome, err := reissue(c2, want.item)
		if err != nil {
			return fmt.Errorf("replaying %s after restart: %w", key, err)
		}
		if outcome != api.CacheHit {
			coldMisses++
			fmt.Fprintf(os.Stderr, "crashtest: COLD after restart (%s): %s\n", outcome, key)
		}
		if !reflect.DeepEqual(got, want.response) {
			mismatches++
			fmt.Fprintf(os.Stderr, "crashtest: MISMATCH after restart: %s\n  pre:  %+v\n  post: %+v\n", key, want.response, got)
		}
	}
	fmt.Printf("crashtest: post-restart: %d/%d warm and identical\n", len(pre)-coldMisses-mismatches, len(pre))
	if coldMisses > 0 {
		return fmt.Errorf("%d pre-kill responses were not warm after restart", coldMisses)
	}
	if mismatches > 0 {
		return fmt.Errorf("%d responses changed across the crash", mismatches)
	}

	// --- Phase 3: the survivor still dies gracefully. ---
	if err := d2.terminate(15 * time.Second); err != nil {
		return fmt.Errorf("phase 3 graceful stop: %w", err)
	}
	st := c2.Stats()
	fmt.Printf("crashtest: client stats: attempts=%d retries=%d failures=%d breaker=%s\n",
		st.Attempts, st.Retries, st.Failures, st.BreakerState)
	if keep {
		fmt.Printf("crashtest: store kept in %s\n", stateDir)
	}
	return nil
}

// --- workload ---

// workItem is one deterministic request: a plan, or a plan + simulate.
type workItem struct {
	simulate bool
	plan     api.PlanRequest
	era      string
	engine   string
}

// key canonicalizes the item for the identity map.
func (w workItem) key() string {
	cube := -2
	if w.plan.CubeDim != nil {
		cube = *w.plan.CubeDim
	}
	return fmt.Sprintf("sim=%t era=%s eng=%s kernel=%s size=%d cube=%d pi=%v search=%t bound=%d merge=%d noaux=%t choice=%d",
		w.simulate, w.era, w.engine, w.plan.Kernel, w.plan.Size, cube, w.plan.Pi,
		w.plan.SearchPi, w.plan.SearchBound, w.plan.MergeFactor, w.plan.NoAux, w.plan.GroupingChoice)
}

// generateWorkload derives a reproducible mixed load from seed. Kernels
// and sizes repeat, so the load exercises hits, misses, and shared
// in-flight computations at once.
func generateWorkload(n int, seed int64) []workItem {
	rng := rand.New(rand.NewSource(seed))
	kernels := []string{"l1", "matmul", "matvec", "stencil", "sor2d", "convolution"}
	sizes := []int64{4, 6, 8, 10, 12}
	var out []workItem
	for i := 0; i < n; i++ {
		it := workItem{
			plan: api.PlanRequest{
				Kernel: kernels[rng.Intn(len(kernels))],
				Size:   sizes[rng.Intn(len(sizes))],
			},
		}
		cube := rng.Intn(4) + 1
		it.plan.CubeDim = &cube
		switch rng.Intn(4) {
		case 0:
			it.plan.SearchPi = true
		case 1:
			it.plan.MergeFactor = int64(rng.Intn(2) + 2)
		case 2:
			it.plan.NoAux = true
		}
		if rng.Intn(3) == 0 {
			it.simulate = true
			it.era = []string{"1991", "unit", "balanced"}[rng.Intn(3)]
			it.engine = []string{"block", "point"}[rng.Intn(2)]
		}
		out = append(out, it)
	}
	return out
}

// recorded is a pre-kill success: the item and its response with the
// cache field zeroed (it legitimately differs across the restart).
type recorded struct {
	item     workItem
	response any
}

type recorder struct {
	mu    sync.Mutex
	byKey map[string]recorded
}

func (r *recorder) put(key string, rec recorded) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byKey[key] = rec
}

func (r *recorder) snapshot() map[string]recorded {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]recorded, len(r.byKey))
	for k, v := range r.byKey {
		out[k] = v
	}
	return out
}

// issue fires one item and records a normalized copy of a successful
// response. Failures are expected once the daemon has been killed.
func issue(c *client.Client, it workItem, rec *recorder) error {
	resp, _, err := reissue(c, it)
	if err != nil {
		return err
	}
	rec.put(it.key(), recorded{item: it, response: resp})
	return nil
}

// reissue fires one item and returns (normalized response, cache
// outcome). The normalized response has Cache cleared so pre- and
// post-crash copies compare equal iff the payload is identical.
func reissue(c *client.Client, it workItem) (any, api.CacheOutcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if it.simulate {
		resp, err := c.Simulate(ctx, &api.SimulateRequest{PlanRequest: it.plan, Era: it.era, Engine: it.engine})
		if err != nil {
			return nil, "", err
		}
		outcome := resp.Cache
		resp.Cache = ""
		return *resp, outcome, nil
	}
	resp, err := c.Plan(ctx, &it.plan)
	if err != nil {
		return nil, "", err
	}
	outcome := resp.Cache
	resp.Cache = ""
	return *resp, outcome, nil
}

func newClient(addr string) *client.Client {
	return client.New(client.Config{
		BaseURL:     "http://" + addr,
		MaxRetries:  2,
		BaseBackoff: 20 * time.Millisecond,
		MaxBackoff:  200 * time.Millisecond,
		// The load deliberately keeps failing after the SIGKILL; a low
		// threshold would just turn those into breaker rejects.
		BreakerThreshold: 1 << 30,
	})
}

func waitReady(c *client.Client) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := c.Ready(ctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon never became ready: %w", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// --- daemon management ---

var (
	listenRe = regexp.MustCompile(`msg=listening addr=([\d.:]+)`)
	warmRe   = regexp.MustCompile(`msg="warm start".*`)
)

type daemon struct {
	cmd  *exec.Cmd
	addr string

	mu   sync.Mutex
	warm string
}

// startDaemon launches loopmapd on an ephemeral port with a durable
// store (fsync always: a response must never outlive its WAL record) and
// scrapes the listen address — and later the warm-start line — from its
// structured log.
func startDaemon(bin, stateDir string) (*daemon, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-disk-cache-dir", stateDir,
		"-fsync", "always",
		"-drain", "10s",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			if warmRe.MatchString(line) {
				d.mu.Lock()
				d.warm = line
				d.mu.Unlock()
			}
		}
	}()
	select {
	case d.addr = <-addrCh:
		return d, nil
	case <-time.After(10 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon never logged its listen address")
	}
}

func (d *daemon) warmLine() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.warm
}

// kill SIGKILLs the daemon — the crash under test.
func (d *daemon) kill() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
}

// terminate asks for a graceful SIGTERM shutdown and requires a clean
// exit within the grace period.
func (d *daemon) terminate(grace time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exited uncleanly after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(grace):
		d.kill()
		return fmt.Errorf("daemon ignored SIGTERM for %v", grace)
	}
}

// buildDaemon compiles cmd/loopmapd into a temp dir.
func buildDaemon() (string, func(), error) {
	dir, err := os.MkdirTemp("", "crashtest-bin-*")
	if err != nil {
		return "", nil, err
	}
	out := filepath.Join(dir, "loopmapd")
	cmd := exec.Command("go", "build", "-o", out, "repro/cmd/loopmapd")
	if b, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("building loopmapd: %v\n%s", err, strings.TrimSpace(string(b)))
	}
	return out, func() { os.RemoveAll(dir) }, nil
}
