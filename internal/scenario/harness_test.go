package scenario

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/serve"
)

// --- the loopmapd binary, built once per test binary ---

var (
	buildOnce sync.Once
	binDir    string
	binPath   string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// loopmapd returns the path of a loopmapd binary built from this module.
func loopmapd(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "scenario-bin-*"); buildErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "loopmapd")
		if out, err := exec.Command("go", "build", "-o", binPath, "repro/cmd/loopmapd").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building loopmapd: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// --- subprocess shards: the ones a test can SIGKILL ---

var listenRe = regexp.MustCompile(`msg=listening addr=([\d.:]+)`)

// proc is one loopmapd subprocess. It collects the daemon's log, from
// which the listen address and the warm-start line are read.
type proc struct {
	cmd  *exec.Cmd
	url  string
	once sync.Once
	err  error

	mu  sync.Mutex
	log []byte
}

func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.log = append(p.log, b...)
	return len(b), nil
}

// find returns the first submatch of re in the log so far, or "".
func (p *proc) find(re *regexp.Regexp) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := re.FindSubmatch(p.log)
	if m == nil {
		return ""
	}
	return string(m[1])
}

// startProc launches loopmapd on an ephemeral port with fsync=always, so
// an acknowledged answer is durable, and args appended (a later -addr
// wins). It is killed when the test ends.
func startProc(t *testing.T, args ...string) *proc {
	t.Helper()
	p := &proc{}
	p.cmd = exec.Command(loopmapd(t), append([]string{"-addr", "127.0.0.1:0", "-fsync", "always", "-drain", "10s"}, args...)...)
	p.cmd.Stderr = p
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.kill()
		if t.Failed() {
			p.mu.Lock()
			t.Logf("loopmapd %v log:\n%s", args, p.log)
			p.mu.Unlock()
		}
	})
	waitFor(t, 10*time.Second, "loopmapd to log its listen address", func() bool { return p.find(listenRe) != "" })
	p.url = "http://" + p.find(listenRe)
	return p
}

func (p *proc) wait() error {
	p.once.Do(func() { p.err = p.cmd.Wait() })
	return p.err
}

// kill SIGKILLs the daemon: the crash under test.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	p.wait()
}

// terminate sends SIGTERM and requires a clean exit within 15 s.
func (p *proc) terminate(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("loopmapd exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("loopmapd ignored SIGTERM for 15s")
	}
}

// metrics scrapes the bare integer samples of p's /metrics.
func (p *proc) metrics(t *testing.T) map[string]int64 {
	t.Helper()
	resp, err := http.Get(p.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), " "); ok && !strings.ContainsAny(name, "#{") {
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out
}

// --- in-process shards ---

var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

// shard is one in-process daemon (serve.New + Recover) on a real TCP
// listener, so a stopped shard can restart on the same address.
type shard struct {
	srv  *serve.Server
	hs   *http.Server
	addr string
	url  string
	once sync.Once
}

func startShard(t *testing.T, addr string, cfg serve.Config) (*shard, serve.RecoveryStats) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = discard
	}
	srv := serve.New(cfg)
	rs, err := srv.Recover(context.Background())
	if err != nil {
		t.Fatalf("recover %s: %v", cfg.DiskCacheDir, err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shard{srv: srv, hs: &http.Server{Handler: srv.Handler()}, addr: ln.Addr().String()}
	sh.url = "http://" + sh.addr
	go sh.hs.Serve(ln)
	t.Cleanup(sh.stop)
	return sh, rs
}

func (sh *shard) client() *client.Client { return client.New(client.Config{BaseURL: sh.url}) }

func (sh *shard) stop() {
	sh.once.Do(func() {
		sh.hs.Close()
		sh.srv.Close()
	})
}

// --- seeded load ---

// item is one request: a plan, or a plan plus a simulation of it.
type item struct {
	api.SimulateRequest
	simulate bool
}

func (it item) key() string {
	b, _ := json.Marshal(it.SimulateRequest)
	return fmt.Sprintf("sim=%t %s", it.simulate, b)
}

func planItem(req api.PlanRequest) item {
	return item{SimulateRequest: api.SimulateRequest{PlanRequest: req}}
}

// mixedLoad is n seeded plan and simulate requests. Kernels and sizes
// repeat, so the load mixes hits, misses and shared in-flight
// computations.
func mixedLoad(n int, seed int64) []item {
	rng := rand.New(rand.NewSource(seed))
	kernels := []string{"l1", "matmul", "matvec", "stencil", "sor2d", "convolution"}
	sizes := []int64{4, 6, 8, 10, 12}
	out := make([]item, n)
	for i := range out {
		it := planItem(api.PlanRequest{
			Kernel: kernels[rng.Intn(len(kernels))],
			Size:   sizes[rng.Intn(len(sizes))],
		})
		cube := rng.Intn(4) + 1
		it.CubeDim = &cube
		switch rng.Intn(4) {
		case 0:
			it.SearchPi = true
		case 1:
			it.MergeFactor = int64(rng.Intn(2) + 2)
		case 2:
			it.NoAux = true
		}
		if rng.Intn(3) == 0 {
			it.simulate = true
			it.Era = []string{"1991", "unit", "balanced"}[rng.Intn(3)]
			it.Engine = []string{"block", "point"}[rng.Intn(2)]
		}
		out[i] = it
	}
	return out
}

// drive runs fn over load on workers goroutines.
func drive(load []item, workers int, fn func(item)) {
	ch := make(chan item)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				fn(it)
			}
		}()
	}
	for _, it := range load {
		ch <- it
	}
	close(ch)
	wg.Wait()
}

// --- answers and their comparison ---

// planner is what *client.Client and *client.Multi have in common.
type planner interface {
	Plan(context.Context, *api.PlanRequest) (*api.PlanResponse, error)
	Simulate(context.Context, *api.SimulateRequest) (*api.SimulateResponse, error)
}

// reply is one answer: its payload, and the per-request metadata that
// payload comparisons ignore.
type reply struct {
	payload string
	cache   api.CacheOutcome
	cluster *api.ClusterInfo
}

// payload is the JSON of a plan or simulate response (a decoded one, or
// a raw body as json.RawMessage) with its "cache" and "cluster" fields
// removed and the rest in a canonical order. Two answers have the same
// payload iff they agree on every other field.
func payload(resp any) (string, error) {
	b, err := json.Marshal(resp)
	if err != nil {
		return "", err
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		return "", fmt.Errorf("undecodable response %s: %w", b, err)
	}
	delete(m, "cache")
	delete(m, "cluster")
	b, err = json.Marshal(m)
	return string(b), err
}

// send issues it through c.
func send(c planner, it item) (reply, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var r reply
	var resp any
	if it.simulate {
		sr, err := c.Simulate(ctx, &it.SimulateRequest)
		if err != nil {
			return r, err
		}
		resp, r.cache, r.cluster = sr, sr.Cache, sr.Cluster
	} else {
		pr, err := c.Plan(ctx, &it.PlanRequest)
		if err != nil {
			return r, err
		}
		resp, r.cache, r.cluster = pr, pr.Cache, pr.Cluster
	}
	var err error
	r.payload, err = payload(resp)
	return r, err
}

// ledger holds the acknowledged answers by request.
type ledger struct {
	mu    sync.Mutex
	acked map[string]ack
}

type ack struct {
	it      item
	payload string
}

func newLedger() *ledger { return &ledger{acked: make(map[string]ack)} }

func (l *ledger) put(it item, r reply) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acked[it.key()] = ack{it, r.payload}
}

func (l *ledger) entries() []ack {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]ack, 0, len(l.acked))
	for _, a := range l.acked {
		out = append(out, a)
	}
	return out
}

// verify re-sends every acknowledged request through c and fails t
// unless each answer's payload is byte-identical to the acknowledged
// one. check, when non-nil, also sees every request and its reply. It
// returns the number of requests sent.
func (l *ledger) verify(t *testing.T, phase string, c planner, check func(item, reply)) int {
	t.Helper()
	acks := l.entries()
	if len(acks) == 0 {
		t.Fatalf("%s: no acknowledged answer to verify", phase)
	}
	for _, a := range acks {
		r, err := send(c, a.it)
		if err != nil {
			t.Fatalf("%s: re-sending %s: %v", phase, a.it.key(), err)
		}
		if r.payload != a.payload {
			t.Fatalf("%s: the answer to %s changed:\n  acked: %s\n  now:   %s", phase, a.it.key(), a.payload, r.payload)
		}
		if check != nil {
			check(a.it, r)
		}
	}
	t.Logf("%s: %d acknowledged answers re-served byte-identical", phase, len(acks))
	return len(acks)
}

// matchesFresh requires a new daemon with no store to compute the
// acknowledged payload for every request in l: no store, restart or
// cluster path ever changed an answer.
func matchesFresh(t *testing.T, l *ledger) {
	t.Helper()
	sh, _ := startShard(t, "127.0.0.1:0", serve.Config{})
	l.verify(t, "fresh daemon", sh.client(), nil)
}

// --- clients and polling ---

// newClient is a client for a daemon that the test will SIGKILL: the
// load keeps failing after the kill by design, so the breaker never
// opens.
func newClient(url string) *client.Client {
	return client.New(client.Config{
		BaseURL:          url,
		MaxRetries:       2,
		BaseBackoff:      20 * time.Millisecond,
		MaxBackoff:       200 * time.Millisecond,
		BreakerThreshold: 1 << 30,
	})
}

// waitFor polls cond until it holds and fails t after d.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(25 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
	}
}

// ready waits until probe (a client's Ready or ReadyAll) succeeds.
func ready(t *testing.T, probe func(context.Context) error) {
	t.Helper()
	waitFor(t, 20*time.Second, "readiness", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		return probe(ctx) == nil
	})
}

// clusterStatus fetches url's /v1/cluster view, or nil if unreachable.
func clusterStatus(url string) *api.ClusterStatus {
	c := client.New(client.Config{BaseURL: url})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	st, err := c.ClusterStatus(ctx)
	if err != nil {
		return nil
	}
	return st
}
