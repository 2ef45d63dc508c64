package client

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"repro/api"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// PlanBatch and SimulateBatch round-trip against a real daemon: results
// are positional, bad items fail alone, and plan items carry ETags.
func TestClientBatchAgainstRealServer(t *testing.T) {
	s := serve.New(serve.Config{})
	c := newTestClient(t, s.Handler(), nil)
	ctx := context.Background()

	two := 2
	reqs := []*api.PlanRequest{
		planReq(),
		{Kernel: "no-such-kernel", Size: 8},
		{Kernel: "matmul", Size: 6, CubeDim: &two},
		planReq(), // duplicate of item 0: same group server-side
	}
	rs, err := c.PlanBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("PlanBatch: %v", err)
	}
	if len(rs) != 4 {
		t.Fatalf("results = %d, want 4", len(rs))
	}
	for _, i := range []int{0, 2, 3} {
		if rs[i].Err != nil {
			t.Fatalf("item %d: %v", i, rs[i].Err)
		}
		if rs[i].Resp.Kernel != reqs[i].Kernel {
			t.Fatalf("item %d answered for kernel %q, want %q", i, rs[i].Resp.Kernel, reqs[i].Kernel)
		}
		if rs[i].ETag == "" {
			t.Fatalf("item %d carries no ETag", i)
		}
	}
	var apiErr *APIError
	if !errors.As(rs[1].Err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("bad item err = %v, want 400 APIError", rs[1].Err)
	}
	if rs[0].ETag != rs[3].ETag {
		t.Fatalf("duplicate requests got ETags %q and %q", rs[0].ETag, rs[3].ETag)
	}
	if m := s.Metrics(); m.PlanComputations != 2 {
		t.Fatalf("computations = %d, want 2 (duplicate shared)", m.PlanComputations)
	}

	srs, err := c.SimulateBatch(ctx, []*api.SimulateRequest{
		{PlanRequest: *planReq(), Sequential: true},
		{PlanRequest: api.PlanRequest{Kernel: "no-such-kernel", Size: 8}},
	})
	if err != nil {
		t.Fatalf("SimulateBatch: %v", err)
	}
	if srs[0].Err != nil || srs[0].Resp.Makespan <= 0 {
		t.Fatalf("simulate item: %+v", srs[0])
	}
	if srs[1].Err == nil {
		t.Fatal("bad simulate item returned no error")
	}
}

// With Config.Revalidate, the second Plan for a key rides its remembered
// ETag and is answered by an empty 304 straight from the local copy.
func TestClientRevalidation(t *testing.T) {
	s := serve.New(serve.Config{})
	c := newTestClient(t, s.Handler(), func(cfg *Config) { cfg.Revalidate = true })
	ctx := context.Background()

	first, err := c.Plan(ctx, planReq())
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != api.CacheMiss {
		t.Fatalf("first call cache = %q, want miss", first.Cache)
	}
	second, err := c.Plan(ctx, planReq())
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != api.CacheHit {
		t.Fatalf("second call cache = %q, want hit", second.Cache)
	}
	if second.Blocks != first.Blocks || second.Procs != first.Procs {
		t.Fatalf("revalidated copy drifted: %+v vs %+v", second, first)
	}
	if got := c.Stats().Revalidations; got != 1 {
		t.Fatalf("revalidations = %d, want 1", got)
	}
	if m := s.Metrics(); m.NotModified != 1 {
		t.Fatalf("server 304s = %d, want 1", m.NotModified)
	}
	if c.reval.len() != 1 {
		t.Fatalf("reval cache holds %d entries, want 1", c.reval.len())
	}

	// A different key is a fresh exchange, not a revalidation.
	d := 2
	if _, err := c.Plan(ctx, &api.PlanRequest{Kernel: "l1", Size: 8, CubeDim: &d}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Revalidations; got != 1 {
		t.Fatalf("revalidations after new key = %d, want still 1", got)
	}
}

// The reval cache evicts LRU at capacity and updates in place.
func TestRevalCacheEviction(t *testing.T) {
	rc := newRevalCache(2)
	rc.put("a", "ea", api.PlanResponse{Blocks: 1})
	rc.put("b", "eb", api.PlanResponse{Blocks: 2})
	rc.get("a") // a is now most recent
	rc.put("c", "ec", api.PlanResponse{Blocks: 3})
	if _, ok := rc.get("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	if e, ok := rc.get("a"); !ok || e.resp.Blocks != 1 {
		t.Fatalf("a lost: %+v %v", e, ok)
	}
	rc.put("a", "ea2", api.PlanResponse{Blocks: 9})
	if e, _ := rc.get("a"); e.etag != "ea2" || e.resp.Blocks != 9 {
		t.Fatalf("in-place update failed: %+v", e)
	}
	if rc.len() != 2 {
		t.Fatalf("len = %d, want 2", rc.len())
	}
}

// A Multi splits a batch by owner shard: one sub-batch per owner, every
// item served by the shard that owns its key.
func TestMultiBatchOwnerSplit(t *testing.T) {
	f := newFakeShards(t, 3)
	m := newTestMulti(t, f, nil)
	ctx := context.Background()

	// Learn the shard map first.
	if _, err := m.Plan(ctx, &api.PlanRequest{Kernel: "l1", Size: 4}); err != nil {
		t.Fatal(err)
	}

	var reqs []*api.PlanRequest
	owners := map[int]bool{}
	for size := int64(4); size < 16; size++ {
		r := &api.PlanRequest{Kernel: "l1", Size: size}
		reqs = append(reqs, r)
		owners[cluster.Owner(r.Key(), []int{0, 1, 2})] = true
	}
	rs, err := m.PlanBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("PlanBatch: %v", err)
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		want := cluster.Owner(reqs[i].Key(), []int{0, 1, 2})
		if r.Resp.Cluster.Shard != want {
			t.Fatalf("item %d served by shard %d, want owner %d", i, r.Resp.Cluster.Shard, want)
		}
	}
	total := 0
	for i := range f.urls {
		f.mu.Lock()
		total += f.batches[i]
		f.mu.Unlock()
	}
	if total != len(owners) {
		t.Fatalf("batch exchanges = %d, want one per owner (%d)", total, len(owners))
	}
}

// Without a learned shard map the whole batch goes to one endpoint in a
// single exchange.
func TestMultiBatchNoMapSingleExchange(t *testing.T) {
	f := newFakeShards(t, 3)
	m := newTestMulti(t, f, nil)

	var reqs []*api.PlanRequest
	for size := int64(4); size < 10; size++ {
		reqs = append(reqs, &api.PlanRequest{Kernel: "l1", Size: size})
	}
	rs, err := m.PlanBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	total := 0
	for i := range f.urls {
		f.mu.Lock()
		total += f.batches[i]
		f.mu.Unlock()
	}
	if total != 1 {
		t.Fatalf("batch exchanges = %d, want 1 before the map is learned", total)
	}
}
