package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/api"
	"repro/internal/cluster"
)

// newTestCluster boots n serve.Servers wired to each other as shards with
// background probing disabled (tests tick membership by hand).
func newTestCluster(t *testing.T, n int) ([]*Server, []*httptest.Server) {
	t.Helper()
	srvs := make([]*Server, n)
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range srvs {
		srvs[i] = New(Config{})
		tss[i] = httptest.NewServer(srvs[i].Handler())
		urls[i] = tss[i].URL
		t.Cleanup(tss[i].Close)
	}
	for i, s := range srvs {
		if err := s.EnableCluster(ClusterOptions{
			SelfID:      i,
			Peers:       urls,
			PeerOptions: PeerOptions{ProbeInterval: -1 /* manual Tick only */, FailThreshold: 1},
		}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
	}
	return srvs, tss
}

// keyOwnedBy finds an l1 plan request whose canonical key rendezvous-
// hashes to the wanted shard among candidates.
func keyOwnedBy(t *testing.T, want int, candidates []int) (api.PlanRequest, string) {
	t.Helper()
	for size := int64(4); size <= 64; size++ {
		req := api.PlanRequest{Kernel: "l1", Size: size}
		key := req.Key()
		if cluster.Owner(key, candidates) == want {
			return req, key
		}
	}
	t.Fatalf("no l1 size in [4,64] is owned by shard %d of %v", want, candidates)
	return api.PlanRequest{}, ""
}

func postPlan(t *testing.T, url string, req api.PlanRequest, hdr map[string]string) (*http.Response, api.PlanResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/plan", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr api.PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp, pr
}

func TestClusterForwardsToOwner(t *testing.T) {
	srvs, tss := newTestCluster(t, 2)
	req, key := keyOwnedBy(t, 1, []int{0, 1})

	// Hitting the non-owner must transparently forward to the owner.
	resp, pr := postPlan(t, tss[0].URL, req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if pr.Cluster == nil {
		t.Fatal("cluster-mode response missing cluster metadata")
	}
	if pr.Cluster.Shard != 1 || pr.Cluster.Owner != 1 {
		t.Fatalf("served by shard %d (owner %d), want owner 1 for key %q", pr.Cluster.Shard, pr.Cluster.Owner, key)
	}
	if pr.Cluster.Hops != 1 {
		t.Fatalf("hops = %d, want 1", pr.Cluster.Hops)
	}
	if got := srvs[0].Metrics().ForwardsSent; got != 1 {
		t.Fatalf("shard 0 forwards_sent = %d, want 1", got)
	}
	m1 := srvs[1].Metrics()
	if m1.ForwardsReceived != 1 || m1.ForwardHops != 1 {
		t.Fatalf("shard 1 forwards_received=%d hops=%d, want 1 and 1", m1.ForwardsReceived, m1.ForwardHops)
	}
	if m1.CacheMisses != 1 {
		t.Fatalf("owner cache misses = %d, want 1 (it computed the plan)", m1.CacheMisses)
	}

	// Hitting the owner directly serves locally with zero hops, warm.
	_, pr2 := postPlan(t, tss[1].URL, req, nil)
	if pr2.Cluster.Shard != 1 || pr2.Cluster.Hops != 0 {
		t.Fatalf("direct hit: shard=%d hops=%d, want 1 and 0", pr2.Cluster.Shard, pr2.Cluster.Hops)
	}
	if pr2.Cache != api.CacheHit {
		t.Fatalf("direct hit cache = %q, want %q", pr2.Cache, api.CacheHit)
	}
}

func TestClusterHopBudgetAndLoopDetection(t *testing.T) {
	srvs, tss := newTestCluster(t, 2)
	req, _ := keyOwnedBy(t, 1, []int{0, 1})
	dim := srvs[0].ClusterMembership().Dim()

	// A request arriving with the budget already spent is served locally by
	// the non-owner rather than forwarded further.
	resp, pr := postPlan(t, tss[0].URL, req, map[string]string{hopHeader: fmt.Sprint(dim)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if pr.Cluster.Shard != 0 {
		t.Fatalf("budget-stopped request served by shard %d, want local 0", pr.Cluster.Shard)
	}
	if got := srvs[0].Metrics().ForwardBudgetStops; got != 1 {
		t.Fatalf("forward_budget_stops = %d, want 1", got)
	}

	// A request whose visited path already contains this shard is a loop:
	// break it locally. A different cube_dim keeps it out of the encoded-
	// response cache the budget-stopped request just warmed — a frame hit
	// would (correctly) answer before the forwarding logic under test runs.
	dim2 := 2
	req.CubeDim = &dim2
	_, pr2 := postPlan(t, tss[0].URL, req, map[string]string{hopHeader: "1", pathHeader: "0"})
	if pr2.Cluster.Shard != 0 {
		t.Fatalf("looped request served by shard %d, want local 0", pr2.Cluster.Shard)
	}
	if got := srvs[0].Metrics().ForwardBudgetStops; got != 2 {
		t.Fatalf("forward_budget_stops = %d, want 2", got)
	}
}

// A dead owner's keyspace rehomes to the survivors: the degraded rehash
// excludes it exactly like Plan.RemapDegraded migrates blocks off dead
// nodes, and no request is ever lost to the failure.
func TestClusterDeadOwnerRehomes(t *testing.T) {
	srvs, tss := newTestCluster(t, 2)
	req, key := keyOwnedBy(t, 1, []int{0, 1})

	// Kill shard 1's listener. Without probing, shard 0 still believes it
	// alive; the forward fails, marks it dead, and the request is served
	// locally — acknowledged responses survive stale membership.
	tss[1].Close()
	resp, pr := postPlan(t, tss[0].URL, req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after owner death = %d", resp.StatusCode)
	}
	if pr.Cluster.Shard != 0 {
		t.Fatalf("served by shard %d, want survivor 0", pr.Cluster.Shard)
	}
	m := srvs[0].Metrics()
	if m.ForwardErrors != 1 {
		t.Fatalf("forward_errors = %d, want 1", m.ForwardErrors)
	}
	if srvs[0].ClusterMembership().IsAlive(1) {
		t.Fatal("failed forward did not mark the peer dead")
	}

	// With shard 1 dead the rehash moves ownership to shard 0: requests now
	// serve locally with no forwarding at all, and the second one is warm.
	if got := srvs[0].ClusterMembership().Owner(key); got != 0 {
		t.Fatalf("degraded owner = %d, want 0", got)
	}
	_, pr2 := postPlan(t, tss[0].URL, req, nil)
	if pr2.Cluster.Shard != 0 || pr2.Cluster.Owner != 0 {
		t.Fatalf("degraded serve: shard=%d owner=%d, want 0,0", pr2.Cluster.Shard, pr2.Cluster.Owner)
	}
	if pr2.Cache != api.CacheHit {
		t.Fatalf("rehomed key not warm on the survivor: cache = %q", pr2.Cache)
	}
	if got := srvs[0].Metrics().ForwardsSent; got != 0 {
		t.Fatalf("forwards_sent = %d, want 0 (owner is local)", got)
	}
}

func TestClusterStatusEndpoint(t *testing.T) {
	srvs, tss := newTestCluster(t, 4)
	resp, err := http.Get(tss[2].URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Self != 2 || st.N != 4 || st.Dim != 2 {
		t.Fatalf("status = self %d n %d dim %d, want 2, 4, 2", st.Self, st.N, st.Dim)
	}
	if len(st.Shards) != 4 || !st.Shards[2].Self || !st.Shards[0].Alive {
		t.Fatalf("bad shard list: %+v", st.Shards)
	}
	_ = srvs
}

func TestClusterMetricsRender(t *testing.T) {
	srvs, tss := newTestCluster(t, 2)
	req, _ := keyOwnedBy(t, 1, []int{0, 1})
	postPlan(t, tss[0].URL, req, nil)

	hresp, err := http.Get(tss[0].URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var b strings.Builder
	srvs[0].Metrics().render(&b)
	text := b.String()
	for _, want := range []string{
		"loopmapd_cluster_size 2",
		"loopmapd_cluster_forwards_sent_total 1",
		"loopmapd_cluster_peer_alive{shard=\"1\"} 1",
		"loopmapd_goroutines",
		"loopmapd_heap_alloc_bytes",
		"loopmapd_gc_pause_seconds_total",
		"loopmapd_build_info{go_version=\"go",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// --- singleflight cancellation (satellite) ---

// A coalesced follower whose context expires must get its own deadline
// error immediately, while the leader's computation — and every patient
// waiter — is unaffected.
func TestSingleflightFollowerCancellation(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	started := make(chan struct{})

	// Leader: blocks until released.
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, err, shared, _ := g.do(context.Background(), "k", func() (any, error) {
			close(started)
			<-release
			return "result", nil
		})
		if err != nil || v.(string) != "result" || shared {
			t.Errorf("leader: v=%v err=%v shared=%t", v, err, shared)
		}
	}()
	<-started

	// Patient follower: joins and waits the leader out.
	patientDone := make(chan struct{})
	go func() {
		defer close(patientDone)
		v, err, shared, _ := g.do(context.Background(), "k", func() (any, error) {
			t.Error("patient follower ran fn — flight not shared")
			return nil, nil
		})
		if err != nil || v.(string) != "result" || !shared {
			t.Errorf("patient follower: v=%v err=%v shared=%t", v, err, shared)
		}
	}()

	// Impatient follower: a context that expires mid-coalesce must not hang
	// on the leader.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err, shared, _ := g.do(ctx, "k", func() (any, error) {
		t.Error("impatient follower ran fn — flight not shared")
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("impatient follower err = %v, want DeadlineExceeded", err)
	}
	if !shared {
		t.Fatal("impatient follower did not report sharing")
	}

	// The abandoned wait must not have poisoned the shared computation.
	close(release)
	<-leaderDone
	<-patientDone

	// And the flight is fully cleaned up: a fresh caller recomputes.
	var again sync.Once
	ran := false
	v, err, shared, _ := g.do(context.Background(), "k", func() (any, error) {
		again.Do(func() { ran = true })
		return "fresh", nil
	})
	if err != nil || v.(string) != "fresh" || shared || !ran {
		t.Fatalf("fresh caller after drain: v=%v err=%v shared=%t ran=%t", v, err, shared, ran)
	}
}
