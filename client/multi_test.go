package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/api"
	"repro/internal/cluster"
)

// fakeShards emulates an n-shard loopmapd cluster: each fake serves
// /v1/plan with truthful cluster metadata (its own shard ID, the owner
// under the current alive set) and /v1/cluster with the live membership
// table — enough surface for the Multi's routing to be observable.
type fakeShards struct {
	mu      sync.Mutex
	urls    []string
	alive   []bool
	hits    []int // /v1/plan requests served, per shard
	batches []int // /v1/batch requests served, per shard
	tss     []*httptest.Server
}

func newFakeShards(t *testing.T, n int) *fakeShards {
	t.Helper()
	f := &fakeShards{
		urls:    make([]string, n),
		alive:   make([]bool, n),
		hits:    make([]int, n),
		batches: make([]int, n),
		tss:     make([]*httptest.Server, n),
	}
	for i := 0; i < n; i++ {
		i := i
		f.alive[i] = true
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
			var req api.PlanRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Kernel == "bogus" {
				http.Error(w, "bad request", http.StatusBadRequest)
				return
			}
			key := req.Key()
			f.mu.Lock()
			f.hits[i]++
			// Mirror the daemon: HRW primary over the full roster,
			// redirected along the Gray ring while the primary is dead.
			all := make([]int, n)
			for id := range all {
				all[id] = id
			}
			owner := cluster.ServingOwner(key, all, func(id int) bool { return f.alive[id] })
			f.mu.Unlock()
			json.NewEncoder(w).Encode(api.PlanResponse{
				Kernel:  req.Kernel,
				Size:    req.Size,
				Cache:   api.CacheMiss,
				Cluster: &api.ClusterInfo{Shard: i, Owner: owner, Hops: 0},
			})
		})
		mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
			var req api.BatchRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, "bad request", http.StatusBadRequest)
				return
			}
			f.mu.Lock()
			f.batches[i]++
			f.mu.Unlock()
			out := api.BatchResponse{Results: make([]api.BatchItemResult, len(req.Items))}
			for j, it := range req.Items {
				if it.Plan == nil {
					out.Results[j] = api.BatchItemResult{Status: http.StatusBadRequest, Error: "plan only"}
					continue
				}
				// A real daemon attaches no cluster metadata to batch items;
				// the fake does, so tests can see which shard served what.
				body, _ := json.Marshal(api.PlanResponse{
					Kernel:  it.Plan.Kernel,
					Size:    it.Plan.Size,
					Cache:   api.CacheMiss,
					Cluster: &api.ClusterInfo{Shard: i},
				})
				out.Results[j] = api.BatchItemResult{Status: http.StatusOK, Body: body}
			}
			json.NewEncoder(w).Encode(out)
		})
		mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
			f.mu.Lock()
			st := api.ClusterStatus{Self: i, N: n, Dim: 2}
			for id := 0; id < n; id++ {
				st.Shards = append(st.Shards, PeerStatus{
					ID: id, URL: f.urls[id], Alive: f.alive[id], Self: id == i,
				})
			}
			f.mu.Unlock()
			json.NewEncoder(w).Encode(st)
		})
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		f.tss[i] = httptest.NewServer(mux)
		f.urls[i] = f.tss[i].URL
		t.Cleanup(f.tss[i].Close)
	}
	return f
}

func (f *fakeShards) aliveIDsLocked() []int {
	var ids []int
	for id, a := range f.alive {
		if a {
			ids = append(ids, id)
		}
	}
	return ids
}

func (f *fakeShards) hitCount(i int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[i]
}

// kill closes a fake shard's listener and marks it dead in the
// survivors' membership tables.
func (f *fakeShards) kill(i int) {
	f.tss[i].Close()
	f.mu.Lock()
	f.alive[i] = false
	f.mu.Unlock()
}

func newTestMulti(t *testing.T, f *fakeShards, mutate func(*MultiConfig)) *Multi {
	t.Helper()
	cfg := MultiConfig{
		Endpoints: f.urls,
		Config: Config{
			MaxRetries:       -1, // failover handles redundancy, not retries
			BreakerThreshold: 1,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMultiOwnerAffinity(t *testing.T) {
	f := newFakeShards(t, 3)
	m := newTestMulti(t, f, nil)
	ctx := context.Background()

	// The first call round-robins blind, then learns the shard map.
	if _, err := m.Plan(ctx, &api.PlanRequest{Kernel: "l1", Size: 4}); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().MapRefreshes; got != 1 {
		t.Fatalf("map refreshes after first call = %d, want 1", got)
	}

	// Every subsequent call must land directly on its key's owner.
	affine := 0
	for size := int64(4); size <= 24; size++ {
		req := &api.PlanRequest{Kernel: "l1", Size: size}
		want := cluster.Owner(req.Key(), []int{0, 1, 2})
		pr, err := m.Plan(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Cluster.Shard != want {
			t.Fatalf("size %d served by shard %d, want owner %d", size, pr.Cluster.Shard, want)
		}
		affine++
	}
	st := m.Stats()
	if st.OwnerRouted < int64(affine) {
		t.Fatalf("owner_routed = %d, want ≥ %d", st.OwnerRouted, affine)
	}
	if st.Failovers != 0 {
		t.Fatalf("failovers = %d, want 0 with all shards healthy", st.Failovers)
	}
	if len(st.PerEndpoint) != 3 {
		t.Fatalf("per-endpoint stats for %d endpoints, want 3", len(st.PerEndpoint))
	}
	var perTotal int64
	for _, es := range st.PerEndpoint {
		perTotal += es.Requests
	}
	if perTotal != st.Requests {
		t.Fatalf("per-endpoint requests sum to %d, aggregate says %d", perTotal, st.Requests)
	}
}

func TestMultiFailoverAndRehome(t *testing.T) {
	f := newFakeShards(t, 3)
	m := newTestMulti(t, f, nil)
	ctx := context.Background()

	// Learn the healthy map, then find a key owned by shard 2.
	if _, err := m.Plan(ctx, &api.PlanRequest{Kernel: "l1", Size: 4}); err != nil {
		t.Fatal(err)
	}
	victim := 2
	var req *api.PlanRequest
	for size := int64(4); size <= 64; size++ {
		r := &api.PlanRequest{Kernel: "l1", Size: size}
		if cluster.Owner(r.Key(), []int{0, 1, 2}) == victim {
			req = r
			break
		}
	}
	if req == nil {
		t.Fatal("no l1 size in [4,64] owned by shard 2")
	}

	// Kill the owner. The stale map still routes there first; the call
	// must fail over to a survivor and succeed, then refresh the map.
	f.kill(victim)
	pr, err := m.Plan(ctx, req)
	if err != nil {
		t.Fatalf("plan after owner death: %v", err)
	}
	if pr.Cluster.Shard == victim {
		t.Fatalf("served by dead shard %d", victim)
	}
	st := m.Stats()
	if st.Failovers == 0 {
		t.Fatal("no failover counted despite dead preferred endpoint")
	}
	if st.MapRefreshes < 2 {
		t.Fatalf("map refreshes = %d, want ≥ 2 (initial + post-failover)", st.MapRefreshes)
	}

	// The refreshed map marks the dead shard down: the same key now
	// routes straight to its Gray-ring standby — the shard holding its
	// replicas — with no further failovers.
	rehomed := cluster.ServingOwner(req.Key(), []int{0, 1, 2},
		func(id int) bool { return id != victim })
	before := m.Stats().Failovers
	pr2, err := m.Plan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if pr2.Cluster.Shard != rehomed {
		t.Fatalf("rehomed key served by shard %d, want %d", pr2.Cluster.Shard, rehomed)
	}
	if got := m.Stats().Failovers; got != before {
		t.Fatalf("failovers went %d → %d on a rehomed key, want no change", before, got)
	}
	// The dead endpoint's breaker tripped on the transport failure.
	if bs := m.Stats().PerEndpoint[f.urls[victim]]; bs.BreakerOpens == 0 {
		t.Fatal("dead endpoint's breaker never opened")
	}
}

// A caller-supplied *http.Client must carry every exchange on every
// endpoint (the connection-pool tuning satellite).
func TestMultiCustomHTTPClient(t *testing.T) {
	f := newFakeShards(t, 2)
	var rt countingTransport
	m := newTestMulti(t, f, func(cfg *MultiConfig) {
		cfg.Config.HTTPClient = &http.Client{Transport: &rt}
	})
	ctx := context.Background()
	for size := int64(4); size <= 8; size++ {
		if _, err := m.Plan(ctx, &api.PlanRequest{Kernel: "l1", Size: size}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ReadyAll(ctx); err != nil {
		t.Fatal(err)
	}
	calls := rt.calls.Load()
	// 5 plans + 1 map refresh + 2 readyz probes, all through our transport.
	if calls < 8 {
		t.Fatalf("custom transport saw %d calls, want ≥ 8", calls)
	}
}

type countingTransport struct {
	calls atomic.Int64
}

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.calls.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// A 4xx is the server telling us the request is wrong; retrying it on a
// sibling shard would just repeat the rejection.
func TestMultiTerminal4xxNoFailover(t *testing.T) {
	f := newFakeShards(t, 2)
	m := newTestMulti(t, f, nil)
	_, err := m.Plan(context.Background(), &api.PlanRequest{Kernel: "bogus", Size: 4})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
	if got := m.Stats().Failovers; got != 0 {
		t.Fatalf("failovers = %d, want 0 on a terminal 4xx", got)
	}
}

func TestMultiValidation(t *testing.T) {
	if _, err := NewMulti(MultiConfig{}); err == nil {
		t.Fatal("NewMulti with no endpoints succeeded")
	}
	if _, err := NewMulti(MultiConfig{Endpoints: []string{"http://a", "http://a/"}}); err == nil {
		t.Fatal("NewMulti with duplicate endpoints succeeded")
	}
}

// Against a single non-clustered daemon the Multi degrades gracefully:
// the 404 from /v1/cluster latches and is never asked again.
func TestMultiSingleDaemonNoClusterMode(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.PlanResponse{Kernel: "l1", Size: 4, Cache: api.CacheMiss})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	m, err := NewMulti(MultiConfig{Endpoints: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for k := 0; k < 3; k++ {
		if _, err := m.Plan(ctx, &api.PlanRequest{Kernel: "l1", Size: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if !m.noCluster.Load() {
		t.Fatal("single-daemon 404 did not latch noCluster")
	}
	if got := m.Stats().MapRefreshes; got != 0 {
		t.Fatalf("map refreshes = %d, want 0 against a non-clustered daemon", got)
	}
}
