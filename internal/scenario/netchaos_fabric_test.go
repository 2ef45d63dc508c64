package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// startBackends boots n plain HTTP servers that answer with their own
// index, returning their addresses and a cleanup.
func startBackends(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "shard-%d", i)
		}))
		t.Cleanup(srv.Close)
		addrs[i] = strings.TrimPrefix(srv.URL, "http://")
	}
	return addrs
}

// clientVia builds an HTTP client whose dials traverse the fabric as
// shard `from`.
func clientVia(f *Fabric, from int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			DialContext:       f.DialContext(from),
			DisableKeepAlives: false,
		},
	}
}

func getVia(t *testing.T, c *http.Client, addr string) (string, error) {
	t.Helper()
	resp, err := c.Get("http://" + addr + "/")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func TestFabricPassesTraffic(t *testing.T) {
	addrs := startBackends(t, 3)
	f, err := NewFabric(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for from := 0; from < 3; from++ {
		c := clientVia(f, from, 2*time.Second)
		for to := 0; to < 3; to++ {
			body, err := getVia(t, c, addrs[to])
			if err != nil {
				t.Fatalf("shard %d -> %d: %v", from, to, err)
			}
			if want := fmt.Sprintf("shard-%d", to); body != want {
				t.Fatalf("shard %d -> %d: got %q, want %q", from, to, body, want)
			}
		}
	}
}

func TestCutIsDirectionalAndHealable(t *testing.T) {
	addrs := startBackends(t, 2)
	f, err := NewFabric(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Cut(Edge{From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	c0 := clientVia(f, 0, time.Second)
	c1 := clientVia(f, 1, time.Second)
	if _, err := getVia(t, c0, addrs[1]); err == nil {
		t.Fatal("cut edge 0->1 still passed a request")
	}
	if _, err := getVia(t, c1, addrs[0]); err != nil {
		t.Fatalf("reverse edge 1->0 should be healthy: %v", err)
	}
	f.Heal()
	if _, err := getVia(t, c0, addrs[1]); err != nil {
		t.Fatalf("healed edge 0->1 failed: %v", err)
	}
}

func TestBlackholeHangsUntilDeadline(t *testing.T) {
	addrs := startBackends(t, 2)
	f, err := NewFabric(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Blackhole(Edge{From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	c := clientVia(f, 0, 150*time.Millisecond)
	start := time.Now()
	_, err = getVia(t, c, addrs[1])
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("blackholed request succeeded")
	}
	if elapsed < 100*time.Millisecond {
		t.Fatalf("blackholed request failed fast (%v); want a hang until the client deadline", elapsed)
	}
}

func TestLatencyDelays(t *testing.T) {
	addrs := startBackends(t, 2)
	f, err := NewFabric(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const lat = 60 * time.Millisecond
	if err := f.SetLatency(Edge{From: 0, To: 1}, lat); err != nil {
		t.Fatal(err)
	}
	c := clientVia(f, 0, 5*time.Second)
	start := time.Now()
	if _, err := getVia(t, c, addrs[1]); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < lat {
		t.Fatalf("request took %v; latency %v not applied", elapsed, lat)
	}
}

func TestResetKillsEstablishedConns(t *testing.T) {
	// A raw TCP echo backend keeps one long-lived connection open so the
	// reset is observable as a read error.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(c, c)
		}
	}()
	other := startBackends(t, 1)
	f, err := NewFabric([]string{ln.Addr().String(), other[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	dial := f.DialContext(1)
	conn, err := dial(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Reset(Edge{From: 1, To: 0}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte("pong")); err == nil {
		if _, err := io.ReadFull(conn, buf); err == nil {
			t.Fatal("connection survived a reset")
		}
	}
	// The edge stays healthy for fresh connections.
	if conn2, err := dial(context.Background(), "tcp", ln.Addr().String()); err != nil {
		t.Fatalf("post-reset dial failed: %v", err)
	} else {
		conn2.Close()
	}
}

func TestPartitionSplitsGroups(t *testing.T) {
	addrs := startBackends(t, 4)
	f, err := NewFabric(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Partition([][]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	type probe struct{ from, to int }
	blocked := map[probe]bool{
		{0, 2}: true, {0, 3}: true, {1, 2}: true, {1, 3}: true,
		{2, 0}: true, {2, 1}: true, {3, 0}: true, {3, 1}: true,
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	failures := map[probe]error{}
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			if from == to {
				continue
			}
			wg.Add(1)
			go func(from, to int) {
				defer wg.Done()
				c := clientVia(f, from, time.Second)
				_, err := getVia(t, c, addrs[to])
				mu.Lock()
				failures[probe{from, to}] = err
				mu.Unlock()
			}(from, to)
		}
	}
	wg.Wait()
	for p, err := range failures {
		if blocked[p] && err == nil {
			t.Errorf("cross-partition %d->%d unexpectedly passed", p.from, p.to)
		}
		if !blocked[p] && err != nil {
			t.Errorf("intra-partition %d->%d unexpectedly failed: %v", p.from, p.to, err)
		}
	}
}

func TestGeneratePlanDeterministicAndValid(t *testing.T) {
	a := GeneratePlan(42, 4, 16)
	b := GeneratePlan(42, 4, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
	c := GeneratePlan(43, 4, 16)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	// Replayable: the JSON rendering round-trips.
	var back Plan
	if err := json.Unmarshal([]byte(a.String()), &back); err != nil {
		t.Fatalf("plan JSON does not round-trip: %v", err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatal("plan changed across JSON round-trip")
	}
}

func TestPlanValidateRejectsBadPlans(t *testing.T) {
	cases := []Plan{
		{Seed: 1, Shards: 1},
		{Seed: 1, Shards: 4, Cycles: []Event{{Kind: "bogus"}}},
		{Seed: 1, Shards: 4, Cycles: []Event{{Kind: KindPartition, Groups: [][]int{{0, 1, 2, 3}}}}},
		{Seed: 1, Shards: 4, Cycles: []Event{{Kind: KindPartition, Groups: [][]int{{0, 1}, {1, 2}}}}},
		{Seed: 1, Shards: 4, Cycles: []Event{{Kind: KindIsolate, Groups: [][]int{{7}}}}},
		{Seed: 1, Shards: 4, Cycles: []Event{{Kind: KindAsymmetric}}},
		{Seed: 1, Shards: 4, Cycles: []Event{{Kind: KindBlackhole, Edges: []Edge{{From: 2, To: 2}}}}},
		{Seed: 1, Shards: 4, Cycles: []Event{{Kind: KindLatency, Edges: []Edge{{From: 0, To: 1}}}}},
	}
	for i, p := range cases {
		if err := p.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: want ErrInvalid, got %v", i, err)
		}
	}
}

func TestApplyAndHealCycles(t *testing.T) {
	addrs := startBackends(t, 4)
	f, err := NewFabric(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan := GeneratePlan(7, 4, 5)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	c := clientVia(f, 0, 300*time.Millisecond)
	for ci, ev := range plan.Cycles {
		if err := f.Apply(ev); err != nil {
			t.Fatalf("cycle %d apply: %v", ci, err)
		}
		f.Heal()
		// After every heal the full mesh must pass again.
		for to := 1; to < 4; to++ {
			if _, err := getVia(t, c, addrs[to]); err != nil {
				t.Fatalf("cycle %d: post-heal 0->%d failed: %v", ci, to, err)
			}
		}
	}
}
