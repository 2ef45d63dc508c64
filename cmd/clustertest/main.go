// Command clustertest is the kill/rehome/elasticity chaos harness for
// loopmapd's cluster mode.
//
// It builds the daemon, boots an N-shard cluster (static peer list,
// fast health probes, one durable state dir per shard, admin token set),
// drives a seeded mixed /v1/plan + /v1/simulate load through the
// cluster-aware Multi client, and asserts the sharding contract while
// everything is healthy:
//
//   - ≥95% of responses come from the key's rendezvous owner shard;
//   - every forwarded request took at most ⌈log₂N⌉ hops;
//   - the shard each response names as owner matches the client's own
//     rendezvous hash over the full shard set.
//
// Then it grows the cluster under load: while client traffic keeps
// flowing, a fresh daemon joins via -join, streams its future keyspace
// from the current owners, and activates. The elasticity contract:
//
//   - no request is lost while the membership changes;
//   - every shard converges on the same bumped map epoch;
//   - only the joiner's HRW keyspace moves: the established shards'
//     compute counters show zero demand-driven recomputation, and the
//     joiner computes at most the keys it now owns or stands by for;
//   - every previously-acknowledged response is re-served byte-identical.
//
// Then it SIGKILLs the shard that owns the most recorded keys, waits
// for the survivors' probes to mark it dead, and asserts the failure
// contract:
//
//   - every request acknowledged before the kill is re-servable from
//     the survivors, byte-identical modulo the cache and cluster
//     metadata fields;
//   - replication made the failover warm: the survivors' compute
//     counters show zero demand-driven recomputations while re-serving
//     the full recorded keyspace (the dead shard's keys were already
//     materialized on their Gray-ring standbys);
//   - a follow-up sweep is ≥95% warm and every degraded owner matches
//     the Gray-ring standby walk;
//   - a fresh standalone daemon computes the same bytes for every
//     recorded key (the cluster never changed a payload);
//   - the survivors still shut down cleanly on SIGTERM.
//
// The workload derives from -seed, so a run is reproducible. CI runs a
// short deterministic version (`make cluster`).
//
//	clustertest -requests 48 -seed 1
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
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
	"repro/internal/cluster"
	"repro/internal/serve"
)

// adminToken gates /v1/admin/* on every daemon the harness boots; the
// join protocol needs it, and running with it set exercises the gated
// replication path too.
const adminToken = "clustertest-admin"

func main() {
	bin := flag.String("bin", "", "loopmapd binary (default: go build it to a temp dir)")
	shards := flag.Int("shards", 3, "initial cluster size (one more joins dynamically)")
	requests := flag.Int("requests", 48, "total requests in the mixed load")
	workers := flag.Int("workers", 4, "concurrent client goroutines")
	seed := flag.Int64("seed", 1, "workload generator seed (runs are reproducible per seed)")
	flag.Parse()

	if err := run(*bin, *shards, *requests, *workers, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "clustertest: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("clustertest: PASS")
}

func run(bin string, shards, requests, workers int, seed int64) error {
	if shards < 2 {
		return fmt.Errorf("need at least 2 initial shards, got %d", shards)
	}
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
	root, err := os.MkdirTemp("", "clustertest-state-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// Pre-pick one port per shard (plus one for the joiner) so every
	// daemon can be told the full peer list before any of them starts.
	ports, err := pickPorts(shards + 1)
	if err != nil {
		return err
	}
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", ports[i])
	}
	joinPort := ports[shards]
	joinURL := fmt.Sprintf("http://127.0.0.1:%d", joinPort)
	fmt.Printf("clustertest: %d shards (+1 joining later), %d requests, seed %d\n", shards, requests, seed)

	// --- Phase 1: boot the cluster. ---
	daemons := make(map[int]*daemon, shards+1)
	for i := 0; i < shards; i++ {
		d, err := startShard(bin, i, ports[i], urls, filepath.Join(root, fmt.Sprintf("shard%d", i)),
			"-admin-token", adminToken)
		if err != nil {
			return fmt.Errorf("starting shard %d: %w", i, err)
		}
		daemons[i] = d
		defer d.kill()
	}
	m, err := client.NewMulti(client.MultiConfig{
		Endpoints: urls,
		Config: client.Config{
			MaxRetries:       1,
			BaseBackoff:      20 * time.Millisecond,
			MaxBackoff:       200 * time.Millisecond,
			BreakerThreshold: 2,
			BreakerCooldown:  500 * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	if err := waitReadyAll(m); err != nil {
		return err
	}
	// One warmup call teaches the client the shard map so the measured
	// load runs owner-affine.
	warmCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	_, err = m.Plan(warmCtx, &api.PlanRequest{Kernel: "l1", Size: 4})
	cancel()
	if err != nil {
		return fmt.Errorf("warmup plan: %w", err)
	}

	// --- Phase 2: seeded load; assert affinity and the hop budget. ---
	allIDs := make([]int, shards)
	for i := range allIDs {
		allIDs[i] = i
	}
	dim := hopBudget(shards)
	load := generateWorkload(requests, seed)
	rec := &recorder{byKey: make(map[string]recorded)}
	var mu sync.Mutex
	var total, byOwner, ownerAgree int
	maxHops := 0

	var wg sync.WaitGroup
	items := make(chan workItem)
	errc := make(chan error, 1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				n, err := reissue(m, it)
				if err != nil {
					select {
					case errc <- fmt.Errorf("healthy-phase request %s: %w", it.key(), err):
					default:
					}
					continue
				}
				rec.put(it.key(), recorded{item: it, response: n.resp})
				if n.cl != nil {
					mu.Lock()
					total++
					if n.cl.Shard == n.cl.Owner {
						byOwner++
					}
					if cluster.Owner(serve.CanonicalPlanKey(&it.plan), allIDs) == n.cl.Owner {
						ownerAgree++
					}
					if n.cl.Hops > maxHops {
						maxHops = n.cl.Hops
					}
					mu.Unlock()
				}
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
		return err
	default:
	}
	fmt.Printf("clustertest: healthy: %d/%d served by owner, %d/%d owners agree with client hash, max hops %d (budget %d)\n",
		byOwner, total, ownerAgree, total, maxHops, dim)
	if total == 0 {
		return fmt.Errorf("no responses carried cluster metadata")
	}
	if 100*byOwner < 95*total {
		return fmt.Errorf("only %d/%d responses served by the rendezvous owner (< 95%%)", byOwner, total)
	}
	if 100*ownerAgree < 95*total {
		return fmt.Errorf("server and client disagree on ownership for %d/%d keys", total-ownerAgree, total)
	}
	if maxHops > dim {
		return fmt.Errorf("a request took %d hops, budget is %d", maxHops, dim)
	}
	pre := rec.snapshot()

	// --- Phase 3: grow the cluster under load. ---
	if err := quiesce(urls); err != nil {
		return fmt.Errorf("pre-join: %w", err)
	}
	preJoin, err := statsAll(urls)
	if err != nil {
		return fmt.Errorf("pre-join stats: %w", err)
	}

	stopBg := make(chan struct{})
	bgErrc := make(chan error, 1)
	var bgCount atomic.Int64
	var bgWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		bgWG.Add(1)
		go func(off int) {
			defer bgWG.Done()
			i := off
			for {
				select {
				case <-stopBg:
					return
				default:
				}
				it := load[i%len(load)]
				i++
				if _, err := reissue(m, it); err != nil {
					select {
					case bgErrc <- fmt.Errorf("request lost during membership change (%s): %w", it.key(), err):
					default:
					}
					return
				}
				bgCount.Add(1)
			}
		}(w)
	}

	joiner, err := startShard(bin, -1, joinPort, nil, filepath.Join(root, "joiner"),
		"-join", urls[0], "-advertise", joinURL, "-admin-token", adminToken,
		"-probe-interval", "150ms", "-fail-threshold", "2")
	if err != nil {
		close(stopBg)
		return fmt.Errorf("starting joiner: %w", err)
	}
	defer joiner.kill()

	epoch, urlByID, err := waitConverged(append(append([]string(nil), urls...), joinURL), shards+1)
	if err != nil {
		close(stopBg)
		return err
	}
	close(stopBg)
	bgWG.Wait()
	select {
	case err := <-bgErrc:
		return err
	default:
	}
	joinID := -1
	for id, u := range urlByID {
		if u == joinURL {
			joinID = id
		}
	}
	if joinID < 0 {
		return fmt.Errorf("converged map does not contain the joiner URL %s", joinURL)
	}
	daemons[joinID] = joiner
	fmt.Printf("clustertest: shard %d joined at epoch %d; %d requests flowed during the change, none lost\n",
		joinID, epoch, bgCount.Load())

	newActive := make([]int, 0, shards+1)
	for id := range urlByID {
		newActive = append(newActive, id)
	}
	allURLs := make([]string, 0, len(urlByID))
	for _, u := range urlByID {
		allURLs = append(allURLs, u)
	}
	if err := quiesce(allURLs); err != nil {
		return fmt.Errorf("post-join: %w", err)
	}
	postJoin, err := statsAll(allURLs)
	if err != nil {
		return fmt.Errorf("post-join stats: %w", err)
	}
	// Established shards must not have recomputed anything on demand:
	// every new computation was a replica materialization pushed to them
	// by the re-replication sweep that follows a map change.
	for i, u := range urls {
		compDelta := postJoin[u].comp - preJoin[u].comp
		matDelta := postJoin[u].mats - preJoin[u].mats
		if compDelta != matDelta {
			return fmt.Errorf("shard %d recomputed %d keys on demand during the join (computes +%d, materializations +%d)",
				i, compDelta-matDelta, compDelta, matDelta)
		}
	}
	// The joiner computed at most its own keyspace: the base keys it now
	// owns, plus the ones it stands by for (pushed to it by the sweep).
	joinerKeys := 0
	seenBase := map[string]bool{}
	for _, r := range pre {
		key := serve.CanonicalPlanKey(&r.item.plan)
		if seenBase[key] {
			continue
		}
		seenBase[key] = true
		if cluster.Owner(key, newActive) == joinID || cluster.ReplicaFor(key, newActive) == joinID {
			joinerKeys++
		}
	}
	if jc := postJoin[joinURL].comp; jc > int64(joinerKeys)+1 {
		return fmt.Errorf("joiner computed %d plans, but only %d base keys map to it (+1 warmup) — more than its keyspace moved",
			jc, joinerKeys)
	}
	fmt.Printf("clustertest: join moved only the joiner's keyspace (joiner computed %d ≤ %d owned/standby base keys)\n",
		postJoin[joinURL].comp, joinerKeys+1)

	// Every acknowledged response survives the membership change, and
	// ownership follows the new rendezvous hash.
	var joinMismatch, ownerWrong int
	for key, want := range pre {
		n, err := reissue(m, want.item)
		if err != nil {
			return fmt.Errorf("replaying %s after the join: %w", key, err)
		}
		if !reflect.DeepEqual(n.resp, want.response) {
			joinMismatch++
			fmt.Fprintf(os.Stderr, "clustertest: MISMATCH after join: %s\n", key)
		}
		if n.cl != nil && cluster.Owner(serve.CanonicalPlanKey(&want.item.plan), newActive) != n.cl.Owner {
			ownerWrong++
		}
	}
	if joinMismatch > 0 {
		return fmt.Errorf("%d responses changed across the join", joinMismatch)
	}
	if ownerWrong > 0 {
		return fmt.Errorf("%d keys report an owner that disagrees with the grown rendezvous hash", ownerWrong)
	}
	fmt.Printf("clustertest: post-join: %d/%d acknowledged responses re-served identically, ownership converged\n",
		len(pre), len(pre))

	// --- Phase 4: SIGKILL the shard owning the most keys. ---
	if err := quiesce(allURLs); err != nil {
		return fmt.Errorf("pre-kill: %w", err)
	}
	preKill, err := statsAll(allURLs)
	if err != nil {
		return fmt.Errorf("pre-kill stats: %w", err)
	}
	victim := busiestOwner(pre, newActive)
	fmt.Printf("clustertest: SIGKILL shard %d (owns %d of %d recorded keys)\n",
		victim, ownedBy(pre, victim, newActive), len(pre))
	daemons[victim].kill()

	survivor := -1
	for _, id := range newActive {
		if id != victim {
			survivor = id
			break
		}
	}
	if err := waitDead(urlByID[survivor], victim); err != nil {
		return err
	}
	fmt.Printf("clustertest: shard %d marked dead by shard %d's probes\n", victim, survivor)

	// --- Phase 5: every acknowledged response is re-servable, unchanged,
	// and replication made that service warm: zero demand recomputations.
	survivors := make([]int, 0, len(newActive)-1)
	for _, id := range newActive {
		if id != victim {
			survivors = append(survivors, id)
		}
	}
	var mismatches int
	for key, want := range pre {
		n, err := reissue(m, want.item)
		if err != nil {
			return fmt.Errorf("replaying %s after the kill: %w", key, err)
		}
		if n.cl != nil && n.cl.Shard == victim {
			return fmt.Errorf("replay of %s claims it was served by the dead shard", key)
		}
		if !reflect.DeepEqual(n.resp, want.response) {
			mismatches++
			fmt.Fprintf(os.Stderr, "clustertest: MISMATCH after kill: %s\n  pre:  %+v\n  post: %+v\n", key, want.response, n.resp)
		}
	}
	fmt.Printf("clustertest: post-kill: %d/%d acknowledged responses re-served identically\n", len(pre)-mismatches, len(pre))
	if mismatches > 0 {
		return fmt.Errorf("%d responses changed across the shard kill", mismatches)
	}
	var recomputed int64
	for _, id := range survivors {
		u := urlByID[id]
		st, err := clusterStats(u)
		if err != nil {
			return fmt.Errorf("post-kill stats from shard %d: %w", id, err)
		}
		demand := (st.comp - preKill[u].comp) - (st.mats - preKill[u].mats)
		if demand > 0 {
			fmt.Fprintf(os.Stderr, "clustertest: shard %d recomputed %d keys after the kill\n", id, demand)
			recomputed += demand
		}
	}
	if recomputed > 0 {
		return fmt.Errorf("failover was cold: survivors recomputed %d previously-served keys (want 0)", recomputed)
	}
	fmt.Printf("clustertest: failover was warm: zero demand recomputations across %d survivors\n", len(survivors))

	// --- Phase 6: the rehomed keyspace is warm on the survivors, and the
	// degraded owner is the Gray-ring standby walk from the dead primary.
	aliveFn := func(id int) bool { return id != victim }
	var warm, swept int
	for _, want := range pre {
		n, err := reissue(m, want.item)
		if err != nil {
			return fmt.Errorf("warm sweep: %w", err)
		}
		swept++
		if n.outcome == api.CacheHit {
			warm++
		}
		if n.cl != nil && cluster.ServingOwner(serve.CanonicalPlanKey(&want.item.plan), newActive, aliveFn) != n.cl.Owner {
			return fmt.Errorf("degraded owner of %s disagrees with the Gray-ring standby walk", want.item.key())
		}
	}
	fmt.Printf("clustertest: warm sweep: %d/%d cache hits on the survivors\n", warm, swept)
	if 100*warm < 95*swept {
		return fmt.Errorf("only %d/%d rehomed keys warm (< 95%%)", warm, swept)
	}

	// --- Phase 7: a standalone daemon computes identical bytes. ---
	solo, err := startShard(bin, 0, 0, nil, filepath.Join(root, "solo"))
	if err != nil {
		return fmt.Errorf("starting standalone daemon: %w", err)
	}
	defer solo.kill()
	sc := client.New(client.Config{BaseURL: "http://" + solo.addr, MaxRetries: 2})
	if err := waitReady(sc); err != nil {
		return err
	}
	var soloMismatches int
	for key, want := range pre {
		n, err := reissueSingle(sc, want.item)
		if err != nil {
			return fmt.Errorf("standalone replay of %s: %w", key, err)
		}
		if !reflect.DeepEqual(n.resp, want.response) {
			soloMismatches++
			fmt.Fprintf(os.Stderr, "clustertest: STANDALONE MISMATCH: %s\n", key)
		}
	}
	fmt.Printf("clustertest: standalone daemon agrees on %d/%d responses\n", len(pre)-soloMismatches, len(pre))
	if soloMismatches > 0 {
		return fmt.Errorf("cluster responses differ from standalone computation for %d keys", soloMismatches)
	}

	// --- Phase 8: survivors die gracefully. ---
	for _, id := range survivors {
		if err := daemons[id].terminate(15 * time.Second); err != nil {
			return fmt.Errorf("graceful stop of shard %d: %w", id, err)
		}
	}
	if err := solo.terminate(15 * time.Second); err != nil {
		return fmt.Errorf("graceful stop of standalone daemon: %w", err)
	}
	st := m.Stats()
	fmt.Printf("clustertest: client stats: requests=%d owner_routed=%d failovers=%d map_refreshes=%d epoch_refreshes=%d\n",
		st.Requests, st.OwnerRouted, st.Failovers, st.MapRefreshes, st.EpochRefreshes)
	return nil
}

// hopBudget is ⌈log₂n⌉ — the cluster's forwarding budget.
func hopBudget(n int) int {
	d := 0
	for 1<<d < n {
		d++
	}
	return d
}

// pickPorts reserves n distinct ephemeral ports by binding and releasing
// them. A racer could grab one before the daemon does; the ready check
// would catch that, and reruns are cheap.
func pickPorts(n int) ([]int, error) {
	ports := make([]int, n)
	lns := make([]net.Listener, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	for _, ln := range lns {
		ln.Close()
	}
	return ports, nil
}

// busiestOwner picks the shard owning the most recorded keys (ties to
// the lowest ID) — killing it maximizes the rehomed keyspace.
func busiestOwner(pre map[string]recorded, ids []int) int {
	best, bestN := ids[0], -1
	for _, id := range ids {
		if n := ownedBy(pre, id, ids); n > bestN {
			best, bestN = id, n
		}
	}
	return best
}

func ownedBy(pre map[string]recorded, id int, ids []int) int {
	n := 0
	for _, r := range pre {
		if cluster.Owner(serve.CanonicalPlanKey(&r.item.plan), ids) == id {
			n++
		}
	}
	return n
}

// shardCounters is the slice of ClusterNodeStats the harness asserts on.
type shardCounters struct {
	comp  int64
	recvd int64
	mats  int64
	queue int64
}

// clusterStats fetches one shard's own counters off /v1/cluster.
func clusterStats(url string) (shardCounters, error) {
	c := client.New(client.Config{BaseURL: url, MaxRetries: 0})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	st, err := c.ClusterStatus(ctx)
	if err != nil {
		return shardCounters{}, err
	}
	if st.Stats == nil {
		return shardCounters{}, fmt.Errorf("%s reported no cluster stats", url)
	}
	return shardCounters{
		comp:  st.Stats.Computations,
		recvd: st.Stats.ReplicasReceived,
		mats:  st.Stats.ReplicaMaterializations,
		queue: st.Stats.ReplicaQueue,
	}, nil
}

func statsAll(urls []string) (map[string]shardCounters, error) {
	out := make(map[string]shardCounters, len(urls))
	for _, u := range urls {
		sc, err := clusterStats(u)
		if err != nil {
			return nil, err
		}
		out[u] = sc
	}
	return out, nil
}

// quiesce waits until every shard's replication queue is empty and its
// counters stop moving across two consecutive polls — at that point all
// in-flight replication and materialization has landed, so compute
// counters snapshotted next are attributable.
func quiesce(urls []string) error {
	// Let the per-shard epoch watcher (200ms tick) fire before sampling,
	// so a sweep triggered by a recent map change is already queued.
	time.Sleep(500 * time.Millisecond)
	deadline := time.Now().Add(30 * time.Second)
	var prev map[string]shardCounters
	for {
		cur := make(map[string]shardCounters, len(urls))
		settled := true
		for _, u := range urls {
			sc, err := clusterStats(u)
			if err != nil {
				settled = false
				break
			}
			if sc.queue != 0 {
				settled = false
			}
			cur[u] = sc
		}
		if settled && prev != nil && reflect.DeepEqual(prev, cur) {
			return nil
		}
		prev = cur
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster never quiesced (replica queues still busy)")
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// waitConverged polls every listed shard until they all report the same
// cluster-map epoch with wantShards active members, then returns that
// epoch and the active id→URL table.
func waitConverged(urls []string, wantShards int) (uint64, map[int]string, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		epoch := uint64(0)
		byID := make(map[int]string)
		ok := true
		for i, u := range urls {
			st, err := clusterStatsFull(u)
			if err != nil {
				ok = false
				break
			}
			if i == 0 {
				epoch = st.Epoch
			} else if st.Epoch != epoch {
				ok = false
				break
			}
			active := 0
			for _, sh := range st.Map.Shards {
				if sh.State == cluster.StateUp {
					active++
					byID[sh.ID] = sh.URL
				}
			}
			if active != wantShards {
				ok = false
				break
			}
		}
		if ok {
			return epoch, byID, nil
		}
		if time.Now().After(deadline) {
			return 0, nil, fmt.Errorf("cluster never converged on a %d-shard map", wantShards)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func clusterStatsFull(url string) (*api.ClusterStatus, error) {
	c := client.New(client.Config{BaseURL: url, MaxRetries: 0})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return c.ClusterStatus(ctx)
}

// waitDead polls a survivor's /v1/cluster until its probes mark the
// victim dead.
func waitDead(survivorURL string, victim int) error {
	c := client.New(client.Config{BaseURL: survivorURL, MaxRetries: 0})
	deadline := time.Now().Add(15 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		st, err := c.ClusterStatus(ctx)
		cancel()
		if err == nil {
			for _, sh := range st.Shards {
				if sh.ID == victim && !sh.Alive {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("survivor never marked shard %d dead", victim)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// --- workload (same deterministic generator family as crashtest) ---

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
	return fmt.Sprintf("sim=%t era=%s eng=%s kernel=%s size=%d cube=%d pi=%v search=%t bound=%d merge=%d noaux=%t choice=%d",
		w.simulate, w.era, w.engine, w.plan.Kernel, w.plan.Size, cube, w.plan.Pi,
		w.plan.SearchPi, w.plan.SearchBound, w.plan.MergeFactor, w.plan.NoAux, w.plan.GroupingChoice)
}

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

// recorded is an acknowledged response, normalized: Cache and Cluster
// cleared so pre-kill, post-kill, and standalone copies compare equal
// iff the payload bytes are identical.
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

// norm is one normalized exchange: the payload with serving metadata
// stripped, plus that metadata on the side.
type norm struct {
	resp    any
	outcome api.CacheOutcome
	cl      *api.ClusterInfo
}

func reissue(m *client.Multi, it workItem) (norm, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if it.simulate {
		resp, err := m.Simulate(ctx, &api.SimulateRequest{PlanRequest: it.plan, Era: it.era, Engine: it.engine})
		if err != nil {
			return norm{}, err
		}
		return normalizeSim(resp), nil
	}
	resp, err := m.Plan(ctx, &it.plan)
	if err != nil {
		return norm{}, err
	}
	return normalizePlan(resp), nil
}

func reissueSingle(c *client.Client, it workItem) (norm, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if it.simulate {
		resp, err := c.Simulate(ctx, &api.SimulateRequest{PlanRequest: it.plan, Era: it.era, Engine: it.engine})
		if err != nil {
			return norm{}, err
		}
		return normalizeSim(resp), nil
	}
	resp, err := c.Plan(ctx, &it.plan)
	if err != nil {
		return norm{}, err
	}
	return normalizePlan(resp), nil
}

func normalizePlan(resp *api.PlanResponse) norm {
	n := norm{outcome: resp.Cache, cl: resp.Cluster}
	resp.Cache = ""
	resp.Cluster = nil
	n.resp = *resp
	return n
}

func normalizeSim(resp *api.SimulateResponse) norm {
	n := norm{outcome: resp.Cache, cl: resp.Cluster}
	resp.Cache = ""
	resp.Cluster = nil
	n.resp = *resp
	return n
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

var listenRe = regexp.MustCompile(`msg=listening addr=([\d.:]+)`)

type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// startShard launches one cluster shard — static (peer list), dynamic
// (extra carries -join/-advertise), or, with no peers and port 0, a
// standalone daemon on an ephemeral port. Fast probes and a low fail
// threshold keep the chaos run short; fsync always because the test
// asserts that acknowledged responses survive a SIGKILL.
func startShard(bin string, id, port int, peers []string, stateDir string, extra ...string) (*daemon, error) {
	args := []string{
		"-disk-cache-dir", stateDir,
		"-fsync", "always",
		"-drain", "10s",
	}
	switch {
	case len(peers) > 0:
		args = append(args,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-peers", strings.Join(peers, ","),
			"-shard-id", fmt.Sprint(id),
			"-probe-interval", "150ms",
			"-fail-threshold", "2",
		)
	case port > 0:
		args = append(args, "-addr", fmt.Sprintf("127.0.0.1:%d", port))
	default:
		args = append(args, "-addr", "127.0.0.1:0")
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
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
			if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
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

func (d *daemon) kill() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
}

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

func buildDaemon() (string, func(), error) {
	dir, err := os.MkdirTemp("", "clustertest-bin-*")
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
