// Command tieredtest is the kill/restart chaos harness for loopmapd's
// tiered larger-than-RAM plan store.
//
// It builds the daemon, starts it with a deliberately tiny RAM budget
// (-cache-mb 1) and a tiered -disk-cache-dir tuned for churn (32 KiB
// memtable, compaction trigger 2, fsync always), fills a keyspace far
// past the RAM budget while recording every acknowledged response, keeps
// writing filler keys until the tier's compaction counter moves, and
// SIGKILLs the daemon inside that compaction window. It then restarts
// from the same directory and asserts the tiered-store contract:
//
//   - warm restart is O(WAL tail): the startup log's wal_records count
//     is strictly smaller than the acknowledged keyspace (the segment
//     bulk is attached via the manifest, not replayed);
//   - no acked-plan loss: every response acknowledged before the kill is
//     re-served byte-identical (modulo the cache field) after restart;
//   - zero recomputations on re-touch: the whole verification sweep is
//     served from RAM or promoted from segments without a single
//     NewPlan call (plan_computations stays flat);
//   - the disk tier outweighs RAM: tiered bytes exceed the LRU budget
//     and live segments survived both the crash and recovery;
//   - the restarted daemon still shuts down cleanly on SIGTERM.
//
// The workload is generated from -seed, so a run is reproducible. CI
// runs a short deterministic version (`make tieredtest`).
//
//	tieredtest -keys 96 -seed 1
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/api"
	"repro/client"
)

// cacheMB is the daemon's RAM LRU budget. The harness keyspace is sized
// to overflow it by construction: the acceptance check requires the disk
// tier to end up strictly larger than this budget.
const cacheMB = 1

func main() {
	bin := flag.String("bin", "", "loopmapd binary (default: go build it to a temp dir)")
	dir := flag.String("dir", "", "tiered disk-cache directory (default: a temp dir, removed on success)")
	keys := flag.Int("keys", 96, "distinct plan keys acknowledged before the kill window opens")
	workers := flag.Int("workers", 8, "concurrent client goroutines")
	seed := flag.Int64("seed", 1, "workload generator seed (runs are reproducible per seed)")
	keep := flag.Bool("keep", false, "keep the disk-cache directory after a successful run")
	flag.Parse()

	if err := run(*bin, *dir, *keys, *workers, *seed, *keep); err != nil {
		fmt.Fprintln(os.Stderr, "tieredtest: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("tieredtest: PASS")
}

func run(bin, dir string, keys, workers int, seed int64, keep bool) error {
	if keys < 16 {
		return fmt.Errorf("need at least 16 keys, got %d", keys)
	}
	if bin == "" {
		built, cleanup, err := buildDaemon()
		if err != nil {
			return err
		}
		defer cleanup()
		bin = built
	}
	if dir == "" {
		d, err := os.MkdirTemp("", "tieredtest-disk-*")
		if err != nil {
			return err
		}
		dir = d
		if !keep {
			defer os.RemoveAll(d)
		}
	}
	fmt.Printf("tieredtest: disk cache %s, %d keys, seed %d\n", dir, keys, seed)

	// --- Phase 1: fill past RAM, then SIGKILL inside a compaction window. ---
	d1, err := startDaemon(bin, dir)
	if err != nil {
		return fmt.Errorf("phase 1 start: %w", err)
	}
	defer d1.kill()
	c1 := newClient(d1.addr)
	if err := waitReady(c1); err != nil {
		return fmt.Errorf("phase 1 ready: %w", err)
	}

	// Fill: every primary key acknowledged and recorded before the kill
	// window opens, so the post-restart verification set is complete.
	acked := make(map[int]any, keys)
	var mu sync.Mutex
	var next atomic.Int64
	var fillErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= keys {
					return
				}
				resp, _, err := issue(c1, i, seed)
				if err != nil {
					fillErr.CompareAndSwap(nil, fmt.Errorf("filling key %d: %w", i, err))
					return
				}
				mu.Lock()
				acked[i] = resp
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err, _ := fillErr.Load().(error); err != nil {
		return err
	}

	m1, err := scrapeMetrics(d1.addr)
	if err != nil {
		return fmt.Errorf("phase 1 metrics: %w", err)
	}
	fmt.Printf("tieredtest: filled %d keys: segments=%d flushes=%d compactions=%d tier=%d KiB\n",
		len(acked), m1["loopmapd_tiered_segments"], m1["loopmapd_tiered_flushes_total"],
		m1["loopmapd_tiered_compactions_total"], m1["loopmapd_tiered_bytes"]>>10)
	if m1["loopmapd_tiered_flushes_total"] == 0 {
		return fmt.Errorf("no memtable flush during fill — the keyspace never left RAM")
	}

	// Churn: keep writing filler keys (beyond the recorded set) so segments
	// keep forming, and SIGKILL the moment the compaction counter moves —
	// the crash lands inside active compaction activity.
	killed := make(chan struct{})
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	var filler atomic.Int64
	for w := 0; w < workers; w++ {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := keys + int(filler.Add(1)) - 1
				issue(c1, i, seed) // failures expected once the kill fires
			}
		}()
	}
	base := m1["loopmapd_tiered_compactions_total"]
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := scrapeMetrics(d1.addr)
		if err == nil && m["loopmapd_tiered_compactions_total"] > base {
			fmt.Printf("tieredtest: SIGKILL at compactions=%d (filler keys written: %d)\n",
				m["loopmapd_tiered_compactions_total"], filler.Load())
			d1.kill()
			close(killed)
			break
		}
		if time.Now().After(deadline) {
			d1.kill()
			close(stop)
			churnWG.Wait()
			return fmt.Errorf("no compaction within 30s of churn — trigger wiring is broken")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	churnWG.Wait()
	<-killed

	// --- Phase 2: restart; assert O(tail) recovery and zero acked loss. ---
	d2, err := startDaemon(bin, dir)
	if err != nil {
		return fmt.Errorf("phase 2 start: %w", err)
	}
	defer d2.kill()
	c2 := newClient(d2.addr)
	if err := waitReady(c2); err != nil {
		return fmt.Errorf("phase 2 ready: %w", err)
	}

	warm := d2.warmLine()
	if warm == "" {
		return fmt.Errorf("restarted daemon never logged a warm start")
	}
	fmt.Println("tieredtest:", warm)
	walRecords, err := warmField(warm, "wal_records")
	if err != nil {
		return err
	}
	// Every acked plan wrote ~2 WAL records (request + encoded frame); a
	// wholesale replay would show that. O(tail) means only the records
	// since the last memtable flush are replayed.
	if walRecords >= int64(len(acked)) {
		return fmt.Errorf("startup replayed %d WAL records for %d acked keys — that is history replay, not the unflushed tail", walRecords, len(acked))
	}
	fmt.Printf("tieredtest: O(tail) restart: %d WAL records replayed for %d acked keys\n", walRecords, len(acked))

	m2, err := scrapeMetrics(d2.addr)
	if err != nil {
		return fmt.Errorf("phase 2 metrics: %w", err)
	}
	if m2["loopmapd_tiered_segments"] == 0 {
		return fmt.Errorf("no live segments after restart — the manifest did not survive the crash")
	}
	// Larger-than-RAM, in entries: decoded plans are MBs each, so the
	// 1 MiB LRU can hold only a sliver of the keyspace, while the tier
	// must hold all of it (one request record + one frame per key).
	if ram := m2["loopmapd_cache_entries"]; ram*10 > int64(len(acked)) {
		return fmt.Errorf("RAM LRU holds %d of %d acked keys after restart — the keyspace never overflowed RAM", ram, len(acked))
	}
	if tk := m2["loopmapd_tiered_keys"]; tk < 2*int64(len(acked)) {
		return fmt.Errorf("tier holds %d records for %d acked keys — the full keyspace is not disk-resident", tk, len(acked))
	}

	// Verification sweep: every pre-kill response re-served byte-identical
	// with zero NewPlan calls — RAM hits and segment promotions only.
	preComputes := m2["loopmapd_plan_computations_total"]
	var cold, mismatches int
	for i, want := range acked {
		got, outcome, err := issue(c2, i, seed)
		if err != nil {
			return fmt.Errorf("re-touching key %d after restart: %w", i, err)
		}
		if outcome != api.CacheHit {
			cold++
			fmt.Fprintf(os.Stderr, "tieredtest: COLD after restart (%s): key %d\n", outcome, i)
		}
		if !reflect.DeepEqual(got, want) {
			mismatches++
			fmt.Fprintf(os.Stderr, "tieredtest: MISMATCH after restart: key %d\n  pre:  %+v\n  post: %+v\n", i, want, got)
		}
	}
	m3, err := scrapeMetrics(d2.addr)
	if err != nil {
		return fmt.Errorf("phase 2 post-sweep metrics: %w", err)
	}
	recomputes := m3["loopmapd_plan_computations_total"] - preComputes
	diskHits := m3["loopmapd_tiered_disk_hits_total"] - m2["loopmapd_tiered_disk_hits_total"]
	fmt.Printf("tieredtest: post-restart: %d/%d warm and identical, disk-hits=%d recomputes=%d\n",
		len(acked)-cold-mismatches, len(acked), diskHits, recomputes)
	if cold > 0 {
		return fmt.Errorf("%d pre-kill responses were not warm after restart", cold)
	}
	if mismatches > 0 {
		return fmt.Errorf("%d responses changed across the crash", mismatches)
	}
	if recomputes != 0 {
		return fmt.Errorf("%d plans recomputed during the sweep — the disk tier should have served them", recomputes)
	}
	if diskHits == 0 {
		return fmt.Errorf("no re-touch was served from the disk tier (keyspace %d)", len(acked))
	}

	// --- Phase 3: the survivor still dies gracefully. ---
	if err := d2.terminate(15 * time.Second); err != nil {
		return fmt.Errorf("phase 3 graceful stop: %w", err)
	}
	if keep {
		fmt.Printf("tieredtest: disk cache kept in %s\n", dir)
	}
	return nil
}

// --- workload ---

// planReq maps a key index to its deterministic plan request. The mix of
// cheap kernels, sizes, and remap-invariant options yields a distinct
// cache key (and so distinct tier records) per index, with responses a
// few KiB each — big enough to roll the 32 KiB memtable over constantly.
func planReq(i int, seed int64) *api.PlanRequest {
	rng := rand.New(rand.NewSource(seed + int64(i)*2654435761))
	idx := i
	size := int64(4 + idx%29)
	idx /= 29
	kernel := []string{"l1", "matvec", "matmul"}[idx%3]
	idx /= 3
	merge := int64(1 + idx%3)
	idx /= 3
	noAux := idx%2 == 1
	cube := 1 + rng.Intn(4)
	return &api.PlanRequest{
		Kernel: kernel, Size: size, CubeDim: &cube,
		MergeFactor: merge, NoAux: noAux,
	}
}

// issue fires the request for key i and returns the normalized response
// (Cache cleared, so pre- and post-crash copies compare equal iff the
// payload is identical) plus the cache outcome.
func issue(c *client.Client, i int, seed int64) (any, api.CacheOutcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := c.Plan(ctx, planReq(i, seed))
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
		// The churn load keeps failing after the SIGKILL by design; a low
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

// --- metrics scraping ---

// scrapeMetrics fetches /metrics and returns every bare `name value`
// integer sample (histograms and labeled series are skipped).
func scrapeMetrics(addr string) (map[string]int64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// warmField extracts an integer field like wal_records=N from the
// daemon's warm-start log line.
func warmField(line, field string) (int64, error) {
	re := regexp.MustCompile(field + `=(\d+)`)
	m := re.FindStringSubmatch(line)
	if m == nil {
		return 0, fmt.Errorf("warm-start line missing %s: %s", field, line)
	}
	return strconv.ParseInt(m[1], 10, 64)
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

// startDaemon launches loopmapd on an ephemeral port with the tiered
// store in its churn-heavy configuration: a 1 MiB RAM LRU so the
// keyspace overflows immediately, a 32 KiB memtable so segments form
// constantly, compaction trigger 2 so compactions run during the fill,
// and fsync always so an acknowledged response is durable by contract.
func startDaemon(bin, dir string) (*daemon, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-disk-cache-dir", dir,
		"-cache-mb", strconv.Itoa(cacheMB),
		"-disk-memtable-kb", "32",
		"-compact-trigger", "2",
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
	dir, err := os.MkdirTemp("", "tieredtest-bin-*")
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
