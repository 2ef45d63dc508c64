package scenario

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/bits"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// adminToken gates /v1/admin/* on the cluster row's daemons; joining
// needs it.
const adminToken = "scenario-admin"

// counters are the parts of a shard's /v1/cluster stats the cluster row
// asserts on.
type counters struct{ comp, recvd, queue int64 }

func shardCounters(url string) (counters, bool) {
	st := clusterStatus(url)
	if st == nil || st.Stats == nil {
		return counters{}, false
	}
	s := st.Stats
	return counters{s.Computations, s.ReplicasReceived, s.ReplicaQueue}, true
}

// quiesce waits until every shard's replication queue is empty and its
// counters hold still across two polls 250 ms apart, so that the
// counters it returns change next only through new requests.
func quiesce(t *testing.T, urls []string) map[string]counters {
	t.Helper()
	var prev, cur map[string]counters
	time.Sleep(250 * time.Millisecond)
	waitFor(t, 30*time.Second, "the replication queues to drain", func() bool {
		time.Sleep(250 * time.Millisecond)
		prev, cur = cur, make(map[string]counters, len(urls))
		for _, u := range urls {
			c, ok := shardCounters(u)
			if !ok || c.queue != 0 {
				return false
			}
			cur[u] = c
		}
		return prev != nil && maps.Equal(prev, cur)
	})
	return cur
}

// demand is how many plans a shard computed between two counter
// snapshots. Ingesting a pushed replica computes nothing, so every
// computation is demand.
func demand(before, after counters) int64 {
	return after.comp - before.comp
}

func baseKey(it item) string { return it.PlanRequest.Key() }

// elasticCluster boots p.shards loopmapd shards, checks owner routing
// under p.n mixed requests, joins one more shard under load, SIGKILLs
// the shard owning the most acknowledged keys, and checks that failover
// was warm and changed no answer.
func elasticCluster(t *testing.T, p params) {
	root := t.TempDir()
	var all []string
	for range p.shards + 1 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, "http://"+ln.Addr().String())
		ln.Close() // a racer could take the port; the ready check would catch it
	}
	static, joinURL := all[:p.shards:p.shards], all[p.shards]
	shardArgs := func(dir, url string, more ...string) []string {
		return append([]string{"-disk-cache-dir", filepath.Join(root, dir), "-addr", strings.TrimPrefix(url, "http://"),
			"-admin-token", adminToken, "-probe-interval", "150ms", "-fail-threshold", "2"}, more...)
	}
	procs := map[int]*proc{}
	ids := make([]int, p.shards)
	for i, u := range static {
		ids[i] = i
		procs[i] = startProc(t, shardArgs(strconv.Itoa(i), u, "-peers", strings.Join(static, ","), "-shard-id", strconv.Itoa(i))...)
	}
	m, err := client.NewMulti(client.MultiConfig{Endpoints: static, Config: client.Config{
		MaxRetries: 1, BaseBackoff: 20 * time.Millisecond, MaxBackoff: 200 * time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: 500 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ready(t, m.ReadyAll)
	// One call teaches the client the shard map, so the load routes to
	// owners.
	warmup := planItem(api.PlanRequest{Kernel: "l1", Size: 4})
	if _, err := send(m, warmup); err != nil {
		t.Fatal(err)
	}

	// Healthy: ≥95% owner-routed, owners agree with the client's
	// rendezvous hash, and no request exceeds ⌈log₂N⌉ hops.
	load := mixedLoad(p.n, p.seed)
	led := newLedger()
	var mu sync.Mutex
	var total, byOwner, agree, maxHops int
	drive(load, 4, func(it item) {
		r, err := send(m, it)
		if err != nil {
			t.Errorf("healthy cluster: %s: %v", it.key(), err)
			return
		}
		led.put(it, r)
		if r.cluster == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		total++
		if r.cluster.Shard == r.cluster.Owner {
			byOwner++
		}
		if cluster.Owner(baseKey(it), ids) == r.cluster.Owner {
			agree++
		}
		maxHops = max(maxHops, r.cluster.Hops)
	})
	hopBudget := bits.Len(uint(p.shards - 1))
	t.Logf("healthy: %d/%d served by the owner, %d/%d owners agree with the client, max hops %d (budget %d)",
		byOwner, total, agree, total, maxHops, hopBudget)
	switch {
	case t.Failed():
		t.FailNow()
	case total == 0:
		t.Fatal("no answer carried cluster metadata")
	case 100*byOwner < 95*total:
		t.Fatalf("only %d/%d answers served by the rendezvous owner", byOwner, total)
	case 100*agree < 95*total:
		t.Fatalf("server and client disagree on the owner of %d/%d keys", total-agree, total)
	case maxHops > hopBudget:
		t.Fatalf("a request took %d hops, budget %d", maxHops, hopBudget)
	}

	// Join a shard while two goroutines keep the load flowing: no
	// request may fail, and only the joiner's keyspace may move.
	preJoin := quiesce(t, static)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var during atomic.Int64
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				it := load[i%len(load)]
				if _, err := send(m, it); err != nil {
					t.Errorf("request lost during the membership change: %s: %v", it.key(), err)
					return
				}
				during.Add(1)
			}
		}()
	}
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	joiner := startProc(t, shardArgs("joiner", joinURL, "-join", static[0], "-advertise", joinURL)...)
	var epoch uint64
	urlOf := map[int]string{}
	waitFor(t, 60*time.Second, "every shard to converge on the grown map", func() bool {
		clear(urlOf)
		for i, u := range all {
			st := clusterStatus(u)
			if st == nil || (i > 0 && st.Epoch != epoch) {
				return false
			}
			epoch = st.Epoch
			up := 0
			for _, sh := range st.Map.Shards {
				if sh.State == cluster.StateUp {
					up++
					urlOf[sh.ID] = sh.URL
				}
			}
			if up != p.shards+1 {
				return false
			}
		}
		return true
	})
	halt()
	if t.Failed() {
		t.FailNow()
	}
	joinID := -1
	var active []int
	for id, u := range urlOf {
		active = append(active, id)
		if u == joinURL {
			joinID = id
		}
	}
	slices.Sort(active)
	if joinID < 0 {
		t.Fatalf("the converged map %v does not hold the joiner %s", urlOf, joinURL)
	}
	procs[joinID] = joiner
	t.Logf("shard %d joined at epoch %d; %d requests flowed during the change", joinID, epoch, during.Load())

	postJoin := quiesce(t, all)
	for i, u := range static {
		// The post-join re-replication sweep's pushes load as recipes,
		// so an established shard computes nothing during the join.
		if n := demand(preJoin[u], postJoin[u]); n != 0 {
			t.Fatalf("shard %d recomputed %d keys on demand during the join", i, n)
		}
	}
	joinerKeys := map[string]bool{}
	for _, a := range led.entries() {
		if k := baseKey(a.it); cluster.Owner(k, active) == joinID || cluster.ReplicaFor(k, active) == joinID {
			joinerKeys[k] = true
		}
	}
	if jc := postJoin[joinURL].comp; jc > int64(len(joinerKeys))+1 {
		t.Fatalf("the joiner computed %d plans, but only %d base keys (+1 warmup) map to it: more than its keyspace moved", jc, len(joinerKeys))
	}
	led.verify(t, "after the join", m, func(it item, r reply) {
		if r.cluster != nil && cluster.Owner(baseKey(it), active) != r.cluster.Owner {
			t.Errorf("after the join: %s reports owner %d, the grown rendezvous hash disagrees", it.key(), r.cluster.Owner)
		}
	})

	// SIGKILL the shard owning the most acknowledged keys.
	preKill := quiesce(t, all)
	owned := map[int]int{}
	for _, a := range led.entries() {
		owned[cluster.Owner(baseKey(a.it), active)]++
	}
	victim := active[0]
	for _, id := range active {
		if owned[id] > owned[victim] {
			victim = id
		}
	}
	survivors := slices.DeleteFunc(slices.Clone(active), func(id int) bool { return id == victim })
	t.Logf("SIGKILL shard %d (owns %d keys)", victim, owned[victim])
	procs[victim].kill()
	// Until a survivor's probes mark the victim dead, it still forwards
	// the victim's keys there and, on the refused connection, computes
	// them itself instead of asking the standby.
	waitFor(t, 15*time.Second, "every survivor to mark the victim dead", func() bool {
		for _, id := range survivors {
			st := clusterStatus(urlOf[id])
			if st == nil || !slices.ContainsFunc(st.Shards, func(ps cluster.PeerStatus) bool { return ps.ID == victim && !ps.Alive }) {
				return false
			}
		}
		return true
	})
	led.verify(t, "after the kill", m, func(it item, r reply) {
		if r.cluster != nil && r.cluster.Shard == victim {
			t.Errorf("after the kill: %s was served by the dead shard", it.key())
		}
	})
	// Replication made failover warm: re-serving the whole keyspace
	// computed nothing on demand.
	for _, id := range survivors {
		c, ok := shardCounters(urlOf[id])
		if !ok {
			t.Fatalf("no stats from survivor %d", id)
		}
		if n := demand(preKill[urlOf[id]], c); n > 0 {
			t.Errorf("failover was cold: shard %d recomputed %d keys", id, n)
		}
	}
	// The dead shard's keys are warm on the survivors, served by the
	// owner the Gray-ring standby walk names.
	alive := func(id int) bool { return id != victim }
	hits := 0
	swept := led.verify(t, "warm sweep", m, func(it item, r reply) {
		if r.cache == api.CacheHit {
			hits++
		}
		if r.cluster != nil && cluster.ServingOwner(baseKey(it), active, alive) != r.cluster.Owner {
			t.Errorf("warm sweep: the owner of %s disagrees with the Gray-ring standby walk", it.key())
		}
	})
	if 100*hits < 95*swept {
		t.Fatalf("only %d/%d rehomed keys warm", hits, swept)
	}
	matchesFresh(t, led)
	for _, id := range survivors {
		procs[id].terminate(t)
	}
}

// retryBudget caps the attempts of each call of the partition row's
// client: retries, failovers and hedges together.
const retryBudget = 8

// partition runs an in-process cluster whose inter-shard traffic all
// passes through a netchaos fabric, while clients reach every shard
// directly. Each cycle of a seeded plan injects one network fault,
// drives p.n mixed requests, heals, and requires every acknowledged
// answer to survive and every owner/standby digest to converge.
func partition(t *testing.T, p params) {
	plan := GeneratePlan(uint64(p.seed), p.shards, p.cycles)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("netchaos plan %s", plan)

	shards := make([]*shard, p.shards)
	urls := make([]string, p.shards)
	addrs := make([]string, p.shards)
	for i := range shards {
		shards[i], _ = startShard(t, "127.0.0.1:0", serve.Config{})
		urls[i], addrs[i] = shards[i].url, shards[i].addr
	}
	fabric, err := NewFabric(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fabric.Close)
	for i, sh := range shards {
		// Each shard dials its peers through its own fabric edges.
		through := &http.Client{Transport: &http.Transport{DialContext: fabric.DialContext(i), MaxIdleConnsPerHost: 4}}
		if err := sh.srv.EnableCluster(serve.ClusterOptions{
			SelfID: i, Peers: urls, PeerOptions: serve.PeerOptions{
				ProbeInterval: 100 * time.Millisecond, ProbeTimeout: 500 * time.Millisecond,
				FailThreshold: 2, ForwardClient: through, Prober: cluster.HTTPProber{Client: through},
				AntiEntropyInterval: 150 * time.Millisecond,
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := client.NewMulti(client.MultiConfig{Endpoints: urls, RetryBudget: retryBudget, Config: client.Config{
		MaxRetries: 2, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
		BreakerThreshold: 5, BreakerCooldown: 200 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ready(t, m.ReadyAll)
	allAlive(t, urls)

	load := mixedLoad(p.n, p.seed)
	for i := range load {
		// A forward into a blackholed edge gives up fast and the shard
		// serves the request itself.
		load[i].TimeoutMS = 2000
	}
	led := newLedger()
	var calls int64
	for ci, ev := range plan.Cycles {
		phase := fmt.Sprintf("cycle %d (%s)", ci, ev.Kind)
		if err := fabric.Apply(ev); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		drive(load, 4, func(it item) {
			r, err := send(m, it)
			if err != nil {
				t.Errorf("%s: %s not acknowledged under the fault: %v", phase, it.key(), err)
				return
			}
			led.put(it, r)
		})
		if t.Failed() {
			t.FailNow()
		}
		fabric.Heal()
		allAlive(t, urls)
		digestsConverge(t, urls)
		calls += int64(len(load) + led.verify(t, phase+" healed", m, nil))
	}

	// A forwarded request whose propagated deadline has passed is
	// rejected, not computed.
	body, _ := json.Marshal(&api.PlanRequest{Kernel: "l1", Size: 8})
	req, _ := http.NewRequest(http.MethodPost, urls[0]+"/v1/plan", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.DeadlineHeader, strconv.FormatInt(time.Now().Add(-time.Second).UnixMicro(), 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired propagated deadline: status %d, want 504", resp.StatusCode)
	}

	if st := m.Stats(); st.Attempts > calls*retryBudget {
		t.Fatalf("%d attempts for %d calls exceed the %d-per-call retry budget", st.Attempts, calls, retryBudget)
	}
}

// allAlive waits until every shard's probes see every shard alive.
func allAlive(t *testing.T, urls []string) {
	t.Helper()
	waitFor(t, 30*time.Second, "membership to re-converge", func() bool {
		for _, u := range urls {
			st := clusterStatus(u)
			if st == nil {
				return false
			}
			alive := 0
			for _, sh := range st.Shards {
				if sh.Alive {
					alive++
				}
			}
			if alive != len(urls) {
				return false
			}
		}
		return true
	})
}

// digestsConverge waits until each owner's digest of its own keyspace
// (bucket root and record count) equals its Gray-ring standby's copy.
func digestsConverge(t *testing.T, urls []string) {
	t.Helper()
	type digest struct {
		Root  string `json:"root"`
		Count int    `json:"count"`
	}
	fetch := func(url string, owner int) (d digest, ok bool) {
		resp, err := http.Get(fmt.Sprintf("%s/v1/replica/digest?owner=%d&depth=8", url, owner))
		if err != nil {
			return d, false
		}
		defer resp.Body.Close()
		return d, resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&d) == nil
	}
	active := make([]int, len(urls))
	for i := range active {
		active[i] = i
	}
	var diff string
	defer func() {
		if t.Failed() {
			t.Log(diff)
		}
	}()
	waitFor(t, 30*time.Second, "anti-entropy to converge the replica digests", func() bool {
		for i := range urls {
			standby := cluster.GraySucc(i, active)
			own, ok1 := fetch(urls[i], i)
			rep, ok2 := fetch(urls[standby], i)
			if !ok1 || !ok2 || own != rep {
				diff = fmt.Sprintf("owner %d: %+v on itself, %+v on standby %d", i, own, rep, standby)
				return false
			}
		}
		return true
	})
}
