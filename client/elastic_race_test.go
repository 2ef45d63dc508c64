package client

import (
	"context"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/serve"
)

// TestMultiElasticMembershipRace drives concurrent plan traffic through
// a Multi while the cluster changes shape underneath it: a fourth shard
// joins dynamically mid-load, then an established shard dies (its
// listener closes, the in-process stand-in for SIGKILL). The contract:
// no request is lost at any point, and every surviving shard converges
// on the same bumped map epoch. Run under -race this also exercises the
// concurrent map adoption, epoch gossip, and replication paths.
func TestMultiElasticMembershipRace(t *testing.T) {
	const token = "elastic-race-token"
	const n = 3

	srvs := make([]*serve.Server, n)
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range srvs {
		srvs[i] = serve.New(serve.Config{AdminToken: token})
		tss[i] = httptest.NewServer(srvs[i].Handler())
		urls[i] = tss[i].URL
		t.Cleanup(tss[i].Close)
	}
	for i, s := range srvs {
		if err := s.EnableCluster(serve.ClusterOptions{
			SelfID:      i,
			Peers:       urls,
			PeerOptions: serve.PeerOptions{ProbeInterval: 50 * time.Millisecond, FailThreshold: 2},
		}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
	}

	m, err := NewMulti(MultiConfig{
		Endpoints: urls,
		Config: Config{
			MaxRetries:       2,
			BaseBackoff:      10 * time.Millisecond,
			MaxBackoff:       100 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  200 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Warm one key so the client has a shard map before the chaos.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.Plan(ctx, &api.PlanRequest{Kernel: "l1", Size: 4}); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	// Continuous traffic across a fixed key population. Every error is a
	// lost request — the thing the membership machinery must not cause.
	stop := make(chan struct{})
	var lost atomic.Int64
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			sizes := []int64{4, 5, 6, 7, 8, 9, 10, 11}
			for i := off; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rctx, rcancel := context.WithTimeout(context.Background(), 10*time.Second)
				_, err := m.Plan(rctx, &api.PlanRequest{Kernel: "l1", Size: sizes[i%len(sizes)]})
				rcancel()
				if err != nil {
					lost.Add(1)
					t.Errorf("request lost during membership change: %v", err)
					return
				}
				served.Add(1)
			}
		}(w)
	}

	// A fourth shard joins while the load runs.
	joiner := serve.New(serve.Config{AdminToken: token})
	jts := httptest.NewServer(joiner.Handler())
	t.Cleanup(jts.Close)
	t.Cleanup(func() { joiner.Close() })
	if err := joiner.JoinCluster(ctx, serve.JoinOptions{
		SeedURL:      urls[0],
		AdvertiseURL: jts.URL,
		AdminToken:   token,
		PeerOptions:  serve.PeerOptions{ProbeInterval: 50 * time.Millisecond, FailThreshold: 2},
	}); err != nil {
		t.Fatalf("join under load: %v", err)
	}

	// Let post-join traffic reach the grown cluster, then kill an
	// established shard (not the seed, not the joiner).
	time.Sleep(200 * time.Millisecond)
	const victim = 2
	tss[victim].Close()

	// Survivors must notice the death and keep serving; give the probes
	// a few rounds under load before stopping traffic.
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	if lost.Load() > 0 {
		t.Fatalf("%d requests lost (served %d)", lost.Load(), served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no traffic flowed during the membership change")
	}

	// Every survivor converges on one epoch, with the joiner an active
	// member of everyone's map.
	alive := []*serve.Server{srvs[0], srvs[1], joiner}
	deadline := time.Now().Add(10 * time.Second)
	for {
		epochs := make(map[uint64]bool)
		joinerUp := true
		for _, s := range alive {
			mem := s.ClusterMembership()
			epochs[mem.Epoch()] = true
			found := false
			for _, sh := range mem.Map().Shards {
				if sh.URL == jts.URL && sh.State == "up" {
					found = true
				}
			}
			if !found {
				joinerUp = false
			}
		}
		if len(epochs) == 1 && joinerUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never converged: epochs %v, joiner up everywhere: %t", keys(epochs), joinerUp)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The client learned the new shape from ordinary traffic: its view
	// refreshed on epoch mismatches, not only after failovers.
	if st := m.Stats(); st.EpochRefreshes == 0 && st.MapRefreshes == 0 {
		t.Fatalf("client never refreshed its shard map: %+v", st)
	}
}

func keys(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestMultiEpochRefreshOnJoin asserts the satellite contract directly:
// a Multi that has a settled view refreshes it when a response carries a
// newer epoch, and starts routing to a shard it had never been told
// about.
func TestMultiEpochRefreshOnJoin(t *testing.T) {
	const token = "epoch-refresh-token"
	const n = 2
	srvs := make([]*serve.Server, n)
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range srvs {
		srvs[i] = serve.New(serve.Config{AdminToken: token})
		tss[i] = httptest.NewServer(srvs[i].Handler())
		urls[i] = tss[i].URL
		t.Cleanup(tss[i].Close)
	}
	for i, s := range srvs {
		if err := s.EnableCluster(serve.ClusterOptions{
			SelfID:      i,
			Peers:       urls,
			PeerOptions: serve.PeerOptions{ProbeInterval: 25 * time.Millisecond, FailThreshold: 2},
		}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
	}

	m, err := NewMulti(MultiConfig{Endpoints: urls})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.Plan(ctx, &api.PlanRequest{Kernel: "l1", Size: 4}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	before := m.Stats()

	joiner := serve.New(serve.Config{AdminToken: token})
	jts := httptest.NewServer(joiner.Handler())
	t.Cleanup(jts.Close)
	t.Cleanup(func() { joiner.Close() })
	if err := joiner.JoinCluster(ctx, serve.JoinOptions{
		SeedURL:      urls[0],
		AdvertiseURL: jts.URL,
		AdminToken:   token,
		PeerOptions:  serve.PeerOptions{ProbeInterval: 25 * time.Millisecond, FailThreshold: 2},
	}); err != nil {
		t.Fatalf("join: %v", err)
	}

	// Ordinary traffic against the old members carries the bumped epoch;
	// the client must refresh without any failover and start routing
	// keys owned by the joiner straight to it.
	deadline := time.Now().Add(10 * time.Second)
	routed := false
	for !routed {
		for _, size := range []int64{4, 5, 6, 7, 8, 9, 10, 11, 12, 13} {
			resp, err := m.Plan(ctx, &api.PlanRequest{Kernel: "l1", Size: size})
			if err != nil {
				t.Fatalf("post-join plan: %v", err)
			}
			if resp.Cluster != nil && resp.Cluster.Shard == 2 {
				routed = true
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no request ever reached the joined shard")
		}
	}
	st := m.Stats()
	if st.EpochRefreshes <= before.EpochRefreshes {
		t.Fatalf("epoch refreshes did not advance: before %d, after %d", before.EpochRefreshes, st.EpochRefreshes)
	}
	if st.Failovers != before.Failovers {
		t.Fatalf("refresh required a failover: %+v", st)
	}
}
