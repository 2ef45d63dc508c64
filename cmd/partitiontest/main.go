// Command partitiontest is the network-partition chaos harness for
// loopmapd's cluster mode.
//
// It boots an N-shard cluster fully in-process — every shard is a
// serve.Server on a real 127.0.0.1 listener — and threads ALL
// inter-shard traffic (forwards, health probes, replication pushes,
// anti-entropy exchanges) through a netchaos proxy fabric: one TCP proxy
// per directed shard pair. Clients keep direct, unproxied access to
// every shard the whole time; only the shards' view of each other
// degrades, exactly like a switch partition in a real deployment.
//
// The run is a seeded schedule of chaos cycles (netchaos.GeneratePlan):
// symmetric partitions, single-shard isolation, asymmetric cuts,
// blackholes, added latency, connection resets. Each cycle applies one
// failure, drives a seeded mixed /v1/plan + /v1/simulate load through
// the cluster-aware Multi client, heals the fabric, and asserts the
// partition-tolerance contract:
//
//   - no acked plan is lost: every response acknowledged during the
//     failure is re-served byte-identical (modulo cache and cluster
//     metadata) from the healed cluster;
//   - membership re-converges: every shard's probes revive every peer;
//   - anti-entropy converges the replicas: each shard's digest over its
//     owned keyspace matches its Gray-ring standby's copy, bucket root
//     and record count both;
//   - a forwarded request whose propagated deadline already passed is
//     rejected with 504, never recomputed;
//   - the client stays inside its per-call retry budget: total HTTP
//     attempts never exceed calls × RetryBudget.
//
// The plan derives from -seed and is printed as JSON at startup; a
// failing run replays exactly with the same seed (or a -plan file).
// CI runs a short deterministic version under -race (`make partition`).
//
//	partitiontest -shards 4 -cycles 6 -requests 24 -seed 1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/netchaos"
	"repro/internal/serve"
)

// retryBudget caps each Multi call's total attempts (retries + failovers
// + hedges); the harness asserts the aggregate attempt count respects it.
const retryBudget = 8

func main() {
	shards := flag.Int("shards", 4, "cluster size")
	cycles := flag.Int("cycles", 6, "chaos cycles to run")
	requests := flag.Int("requests", 24, "requests driven per cycle")
	workers := flag.Int("workers", 4, "concurrent client goroutines")
	seed := flag.Uint64("seed", 1, "chaos plan + workload seed (runs replay per seed)")
	planFile := flag.String("plan", "", "replay a chaos plan from this JSON file instead of generating one")
	flag.Parse()

	if err := run(*shards, *cycles, *requests, *workers, *seed, *planFile); err != nil {
		fmt.Fprintln(os.Stderr, "partitiontest: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("partitiontest: PASS")
}

func run(shards, cycles, requests, workers int, seed uint64, planFile string) error {
	if shards < 2 {
		return fmt.Errorf("need at least 2 shards, got %d", shards)
	}
	plan := netchaos.GeneratePlan(seed, shards, cycles)
	if planFile != "" {
		b, err := os.ReadFile(planFile)
		if err != nil {
			return err
		}
		plan = netchaos.Plan{}
		if err := json.Unmarshal(b, &plan); err != nil {
			return fmt.Errorf("parsing -plan: %w", err)
		}
		shards = plan.Shards
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	fmt.Printf("partitiontest: chaos plan: %s\n", plan)

	// --- Boot N in-process shards on real listeners. ---
	srvs := make([]*serve.Server, shards)
	tss := make([]*httptest.Server, shards)
	urls := make([]string, shards)
	addrs := make([]string, shards)
	for i := range srvs {
		srvs[i] = serve.New(serve.Config{})
		tss[i] = httptest.NewServer(srvs[i].Handler())
		defer tss[i].Close()
		urls[i] = tss[i].URL
		addrs[i] = strings.TrimPrefix(tss[i].URL, "http://")
	}

	// One proxy per directed shard pair; each shard's outbound transports
	// dial through its own edges, so cuts are as asymmetric as the plan
	// demands while clients stay directly connected.
	fabric, err := netchaos.NewFabric(addrs)
	if err != nil {
		return err
	}
	defer fabric.Close()

	for i, s := range srvs {
		through := &http.Client{Transport: &http.Transport{
			DialContext:         fabric.DialContext(i),
			MaxIdleConnsPerHost: 4,
		}}
		if err := s.EnableCluster(serve.ClusterOptions{
			SelfID:              i,
			Peers:               urls,
			ProbeInterval:       100 * time.Millisecond,
			ProbeTimeout:        500 * time.Millisecond,
			FailThreshold:       2,
			ForwardClient:       through,
			Prober:              cluster.HTTPProber{Client: through},
			AntiEntropyInterval: 150 * time.Millisecond,
		}); err != nil {
			return fmt.Errorf("enabling cluster on shard %d: %w", i, err)
		}
		defer s.Close()
	}

	m, err := client.NewMulti(client.MultiConfig{
		Endpoints: urls,
		Config: client.Config{
			MaxRetries:       2,
			BaseBackoff:      10 * time.Millisecond,
			MaxBackoff:       100 * time.Millisecond,
			BreakerThreshold: 5,
			BreakerCooldown:  200 * time.Millisecond,
		},
		RetryBudget: retryBudget,
	})
	if err != nil {
		return err
	}
	if err := waitReadyAll(m); err != nil {
		return err
	}
	if err := waitAllAlive(urls, shards); err != nil {
		return fmt.Errorf("initial convergence: %w", err)
	}

	// --- Chaos cycles. ---
	acked := map[string]recorded{}
	var calls int64
	load := generateWorkload(requests, int64(seed))
	for ci, ev := range plan.Cycles {
		fmt.Printf("partitiontest: cycle %d/%d: inject %s\n", ci+1, len(plan.Cycles), describe(ev))
		if err := fabric.Apply(ev); err != nil {
			return fmt.Errorf("cycle %d: applying %s: %w", ci, ev.Kind, err)
		}

		// Load under failure. Forwarding degrades to local service, so
		// every request must still be acknowledged.
		n, err := drive(m, load, workers, acked)
		calls += n
		if err != nil {
			return fmt.Errorf("cycle %d (%s): %w", ci, ev.Kind, err)
		}

		fabric.Heal()
		if err := waitAllAlive(urls, shards); err != nil {
			return fmt.Errorf("cycle %d (%s): heal: %w", ci, ev.Kind, err)
		}
		if err := waitDigestConverged(urls, shards); err != nil {
			return fmt.Errorf("cycle %d (%s): %w", ci, ev.Kind, err)
		}

		// Zero acked-plan loss: everything acknowledged so far re-serves
		// byte-identical from the healed cluster.
		for key, want := range acked {
			got, err := reissue(m, want.item)
			calls++
			if err != nil {
				return fmt.Errorf("cycle %d: replaying %s after heal: %w", ci, key, err)
			}
			if !reflect.DeepEqual(got.resp, want.response) {
				return fmt.Errorf("cycle %d: acked response for %s changed across the partition:\n  pre:  %+v\n  post: %+v",
					ci, key, want.response, got.resp)
			}
		}
		fmt.Printf("partitiontest: cycle %d/%d: healed; %d acked responses re-served identically, digests converged\n",
			ci+1, len(plan.Cycles), len(acked))
	}

	// --- Deadline contract: a forwarded request that arrives dead is
	// rejected up front, not recomputed. ---
	if err := checkDeadlineReject(urls[0]); err != nil {
		return err
	}
	fmt.Println("partitiontest: expired propagated deadline rejected with 504")

	// --- Retry budget: the whole run stayed inside calls × budget. ---
	st := m.Stats()
	if st.Attempts > calls*retryBudget {
		return fmt.Errorf("client made %d attempts for %d calls — exceeds the %d-per-call retry budget",
			st.Attempts, calls, retryBudget)
	}
	fmt.Printf("partitiontest: client stats: calls=%d attempts=%d (budget %d/call) failovers=%d hedges=%d budget_exhausted=%d\n",
		calls, st.Attempts, retryBudget, st.Failovers, st.Hedges, st.BudgetExhausted)
	return nil
}

// describe renders one chaos event for the cycle log line.
func describe(ev netchaos.Event) string {
	switch ev.Kind {
	case netchaos.KindPartition, netchaos.KindIsolate:
		return fmt.Sprintf("%s groups=%v", ev.Kind, ev.Groups)
	case netchaos.KindLatency:
		return fmt.Sprintf("%s %v edges=%v", ev.Kind, ev.Latency, ev.Edges)
	default:
		return fmt.Sprintf("%s edges=%v", ev.Kind, ev.Edges)
	}
}

// drive pushes the workload through the Multi client with workers
// goroutines, recording every acknowledged (normalized) response.
// Returns the number of calls issued.
func drive(m *client.Multi, load []workItem, workers int, acked map[string]recorded) (int64, error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	items := make(chan workItem)
	errc := make(chan error, 1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				got, err := reissue(m, it)
				if err != nil {
					select {
					case errc <- fmt.Errorf("request %s not acknowledged under failure: %w", it.key(), err):
					default:
					}
					continue
				}
				mu.Lock()
				acked[it.key()] = recorded{item: it, response: got.resp}
				mu.Unlock()
			}
		}()
	}
	for _, it := range load {
		items <- it
	}
	close(items)
	wg.Wait()
	select {
	case err := <-errc:
		return int64(len(load)), err
	default:
	}
	return int64(len(load)), nil
}

// waitAllAlive polls every shard until each one's probes report the full
// membership alive again.
func waitAllAlive(urls []string, want int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := true
		for _, u := range urls {
			st, err := clusterStatus(u)
			if err != nil {
				ok = false
				break
			}
			alive := 0
			for _, sh := range st.Shards {
				if sh.Alive {
					alive++
				}
			}
			if alive != want {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("membership never re-converged to %d alive shards", want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// digestRow is one shard's answer about one owner's keyspace.
type digestRow struct {
	Root  string `json:"root"`
	Count int    `json:"count"`
}

// waitDigestConverged polls every owner↔standby pair until the standby's
// copy of the owner's keyspace digests identically to the owner's own —
// the anti-entropy worker has fully repaired whatever the partition
// dropped.
func waitDigestConverged(urls []string, shards int) error {
	active := make([]int, shards)
	for i := range active {
		active[i] = i
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := true
		for i := 0; i < shards && ok; i++ {
			standby := cluster.GraySucc(i, active)
			if standby == i {
				continue
			}
			own, err1 := fetchDigest(urls[i], i)
			rep, err2 := fetchDigest(urls[standby], i)
			if err1 != nil || err2 != nil || own.Root != rep.Root || own.Count != rep.Count {
				ok = false
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			var detail []string
			for i := 0; i < shards; i++ {
				standby := cluster.GraySucc(i, active)
				own, _ := fetchDigest(urls[i], i)
				rep, _ := fetchDigest(urls[standby], i)
				detail = append(detail, fmt.Sprintf("owner %d: %s/%d on self vs %s/%d on standby %d",
					i, own.Root, own.Count, rep.Root, rep.Count, standby))
			}
			return fmt.Errorf("anti-entropy never converged the replica digests:\n  %s",
				strings.Join(detail, "\n  "))
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func fetchDigest(url string, owner int) (digestRow, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/replica/digest?owner=%d&depth=8", url, owner), nil)
	if err != nil {
		return digestRow{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return digestRow{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return digestRow{}, fmt.Errorf("digest from %s: status %d", url, resp.StatusCode)
	}
	var row digestRow
	if err := json.NewDecoder(resp.Body).Decode(&row); err != nil {
		return digestRow{}, err
	}
	return row, nil
}

// checkDeadlineReject sends a plan whose propagated deadline already
// passed, as if a slow hop relayed it too late, and requires the 504.
func checkDeadlineReject(url string) error {
	body, _ := json.Marshal(&api.PlanRequest{Kernel: "l1", Size: 8})
	req, err := http.NewRequest(http.MethodPost, url+"/v1/plan", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.DeadlineHeader, strconv.FormatInt(time.Now().Add(-time.Second).UnixMicro(), 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		return fmt.Errorf("expired-deadline request: status %d, want 504", resp.StatusCode)
	}
	return nil
}

// --- workload (same deterministic generator family as clustertest) ---

type workItem struct {
	simulate bool
	plan     api.PlanRequest
	era      string
	engine   string
}

func (w workItem) key() string {
	cube := -2
	if w.plan.CubeDim != nil {
		cube = *w.plan.CubeDim
	}
	return fmt.Sprintf("sim=%t era=%s eng=%s kernel=%s size=%d cube=%d search=%t merge=%d noaux=%t",
		w.simulate, w.era, w.engine, w.plan.Kernel, w.plan.Size, cube,
		w.plan.SearchPi, w.plan.MergeFactor, w.plan.NoAux)
}

func generateWorkload(n int, seed int64) []workItem {
	rng := rand.New(rand.NewSource(seed))
	kernels := []string{"l1", "matmul", "matvec", "stencil", "sor2d", "convolution"}
	sizes := []int64{4, 6, 8, 10}
	var out []workItem
	for i := 0; i < n; i++ {
		it := workItem{
			plan: api.PlanRequest{
				Kernel: kernels[rng.Intn(len(kernels))],
				Size:   sizes[rng.Intn(len(sizes))],
				// A short per-request budget keeps forwards into
				// blackholed edges from stalling a whole cycle: the
				// forwarding context dies fast and the shard serves
				// locally.
				TimeoutMS: 2000,
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

// recorded is an acknowledged response with cache and cluster metadata
// stripped, so copies from before and after a heal compare equal iff the
// payload bytes are identical.
type recorded struct {
	item     workItem
	response any
}

type norm struct{ resp any }

func reissue(m *client.Multi, it workItem) (norm, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if it.simulate {
		resp, err := m.Simulate(ctx, &api.SimulateRequest{PlanRequest: it.plan, Era: it.era, Engine: it.engine})
		if err != nil {
			return norm{}, err
		}
		resp.Cache = ""
		resp.Cluster = nil
		return norm{resp: *resp}, nil
	}
	resp, err := m.Plan(ctx, &it.plan)
	if err != nil {
		return norm{}, err
	}
	resp.Cache = ""
	resp.Cluster = nil
	return norm{resp: *resp}, nil
}

func waitReadyAll(m *client.Multi) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := m.ReadyAll(ctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster never became ready: %w", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func clusterStatus(url string) (*api.ClusterStatus, error) {
	c := client.New(client.Config{BaseURL: url, MaxRetries: 0})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return c.ClusterStatus(ctx)
}
