package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/persist"
)

// newRepairCluster boots n shards with both background probing and the
// anti-entropy worker disabled, so tests drive repair rounds by hand.
func newRepairCluster(t *testing.T, n int) ([]*Server, []*httptest.Server) {
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
			PeerOptions: PeerOptions{ProbeInterval: -1, AntiEntropyInterval: -1, FailThreshold: 1},
		}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
	}
	return srvs, tss
}

// plantFrame inserts one encoded response frame directly into a shard's
// response cache — a record replication never delivered.
func plantFrame(s *Server, ekey, body string) {
	s.resp.put(ekey, newRespFrame([]byte(body+"\n")))
}

func fetchDigestWire(t *testing.T, url string, owner int, depth int) digestWire {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/replica/digest?owner=%d&depth=%d", url, owner, depth))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("digest endpoint: status %d", resp.StatusCode)
	}
	var wire digestWire
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestReplicaDigestEndpoint(t *testing.T) {
	srvs, tss := newRepairCluster(t, 2)
	req, key := keyOwnedBy(t, 0, []int{0, 1})

	if resp, _ := postPlan(t, tss[0].URL, req, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d", resp.StatusCode)
	}
	_ = srvs

	wire := fetchDigestWire(t, tss[0].URL, 0, 6)
	if wire.Depth != 6 || len(wire.Leaves) != 1<<6 {
		t.Fatalf("digest shape: depth=%d leaves=%d", wire.Depth, len(wire.Leaves))
	}
	if wire.Count < 1 {
		t.Fatalf("owner digest count = %d, want >= 1 (the plan just computed for key %q)", wire.Count, key)
	}
	// The wire form reconstructs to the advertised root.
	leaves := make([]uint64, len(wire.Leaves))
	for i, h := range wire.Leaves {
		v, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
		leaves[i] = v
	}
	d, err := persist.DigestFromLeaves(leaves, wire.Count)
	if err != nil {
		t.Fatal(err)
	}
	root, err := strconv.ParseUint(wire.Root, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root() != root {
		t.Fatalf("leaves rebuild to root %x, wire advertises %x", d.Root(), root)
	}

	// A request with a depth out of range is rejected, not mis-bucketed.
	resp, err := http.Get(fmt.Sprintf("%s/v1/replica/digest?owner=0&depth=%d", tss[0].URL, persist.MaxDigestDepth+1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized depth: status %d, want 400", resp.StatusCode)
	}
}

// TestAntiEntropyRepairsBothDirections plants one frame record on the
// owner that the standby never received and one on the standby that the
// owner lost, runs a repair round, and requires full convergence — the
// owner pushed its record and pulled the standby's.
func TestAntiEntropyRepairsBothDirections(t *testing.T) {
	srvs, tss := newRepairCluster(t, 2)
	_, key := keyOwnedBy(t, 0, []int{0, 1})

	pushedKey := key + "|cube=3"
	pulledKey := key + "|cube=4"
	plantFrame(srvs[0], pushedKey, `{"planted":"owner"}`)
	plantFrame(srvs[1], pulledKey, `{"planted":"standby"}`)

	ae := &antiEntropy{s: srvs[0], cn: srvs[0].cnode()}
	ae.runRound("test")

	// The push lands in the standby's ingest queue synchronously
	// (resp.put happens inline in ingestRecords); the pull applies on the
	// owner before runRound returns.
	if _, ok := srvs[1].resp.get(pushedKey); !ok {
		t.Fatal("standby missing the owner's planted frame after repair")
	}
	if _, ok := srvs[0].resp.get(pulledKey); !ok {
		t.Fatal("owner missing the standby's planted frame after repair")
	}

	m := srvs[0].Metrics()
	if m.AntiEntropyRounds != 1 || m.AntiEntropyCleanRounds != 0 {
		t.Fatalf("rounds=%d clean=%d, want 1 and 0", m.AntiEntropyRounds, m.AntiEntropyCleanRounds)
	}
	if m.AntiEntropyDivergentBuckets < 1 {
		t.Fatalf("divergent buckets = %d, want >= 1", m.AntiEntropyDivergentBuckets)
	}
	if m.AntiEntropyRecordsPushed < 1 || m.AntiEntropyRecordsPulled < 1 {
		t.Fatalf("pushed=%d pulled=%d, want >= 1 each", m.AntiEntropyRecordsPushed, m.AntiEntropyRecordsPulled)
	}

	// A second round finds nothing to do and both shards agree bucket by
	// bucket.
	ae.runRound("test")
	if m := srvs[0].Metrics(); m.AntiEntropyCleanRounds != 1 {
		t.Fatalf("second round not clean: %+v", m)
	}
	a := fetchDigestWire(t, tss[0].URL, 0, 8)
	b := fetchDigestWire(t, tss[1].URL, 0, 8)
	if a.Root != b.Root || a.Count != b.Count {
		t.Fatalf("digests disagree after repair: %s/%d vs %s/%d", a.Root, a.Count, b.Root, b.Count)
	}
}

func TestForwardRejectsExpiredDeadline(t *testing.T) {
	srvs, tss := newRepairCluster(t, 2)
	req, _ := keyOwnedBy(t, 1, []int{0, 1})

	past := strconv.FormatInt(time.Now().Add(-time.Second).UnixMicro(), 10)
	resp, _ := postPlan(t, tss[0].URL, req, map[string]string{api.DeadlineHeader: past})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504", resp.StatusCode)
	}
	if got := srvs[0].Metrics().ForwardDeadlineRejects; got != 1 {
		t.Fatalf("forward_deadline_rejects = %d, want 1", got)
	}
	// A live deadline sails through and the request forwards normally.
	future := strconv.FormatInt(time.Now().Add(30*time.Second).UnixMicro(), 10)
	resp2, pr := postPlan(t, tss[0].URL, req, map[string]string{api.DeadlineHeader: future})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("live deadline: status %d", resp2.StatusCode)
	}
	if pr.Cluster == nil || pr.Cluster.Shard != 1 {
		t.Fatalf("live-deadline request not served by owner: %+v", pr.Cluster)
	}
}

// TestForwardPropagatesDeadline points a shard at a stub "owner" that
// records the forwarded request's headers, proving the absolute deadline
// rides the hop.
func TestForwardPropagatesDeadline(t *testing.T) {
	var gotDeadline, gotHops string
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/plan") {
			gotDeadline = r.Header.Get(api.DeadlineHeader)
			gotHops = r.Header.Get(hopHeader)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"kernel":"l1"}`)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer stub.Close()

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if err := s.EnableCluster(ClusterOptions{
		SelfID:      0,
		Peers:       []string{ts.URL, stub.URL},
		PeerOptions: PeerOptions{ProbeInterval: -1, AntiEntropyInterval: -1},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	req, _ := keyOwnedBy(t, 1, []int{0, 1})
	before := time.Now()
	resp, _ := postPlan(t, ts.URL, req, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if gotHops != "1" {
		t.Fatalf("stub saw hops=%q, want 1", gotHops)
	}
	us, err := strconv.ParseInt(gotDeadline, 10, 64)
	if err != nil {
		t.Fatalf("stub saw deadline header %q: %v", gotDeadline, err)
	}
	d := time.UnixMicro(us)
	if d.Before(before) || d.After(before.Add(time.Hour)) {
		t.Fatalf("propagated deadline %v not within (request time, request time + 1h]", d)
	}
}
