// Cluster-mode serving: N loopmapd shards behave as one sharded plan
// cache. Every shard canonicalizes a request to the same cache key,
// rendezvous-hashes it to an owner over the currently-alive shard set, and
// either serves it (owner) or forwards it one e-cube hop toward the owner.
// Forwards carry a hop counter and the visited-shard path, so a stale or
// disagreeing membership view degrades to serving locally — never to a
// routing loop or a dropped request.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/api"
	"repro/internal/cluster"
)

// Forwarding headers: the hop count so far and the comma-separated shard
// IDs already visited (loop detection).
const (
	hopHeader  = "X-Loopmap-Hops"
	pathHeader = "X-Loopmap-Path"
)

// PeerOptions are the peer-facing settings a shard runs with, however it
// entered the cluster (EnableCluster or JoinCluster).
type PeerOptions struct {
	// ProbeInterval is the peer health-probe period (default 2s). A
	// negative value disables background probing entirely — tests drive
	// Membership.Tick by hand.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 1s); FailThreshold
	// consecutive failures mark a peer dead (default 3).
	ProbeTimeout  time.Duration
	FailThreshold int
	// ForwardClient is the transport for forwarded requests (default: a
	// pooled client). Prober overrides the health check for tests.
	ForwardClient *http.Client
	Prober        cluster.Prober
	// AntiEntropyInterval paces the digest anti-entropy exchange with
	// this shard's standby (default 3s). Negative disables the worker;
	// repair then only happens via replication and transfers.
	AntiEntropyInterval time.Duration
}

// ClusterOptions configures sharded multi-daemon serving.
type ClusterOptions struct {
	// SelfID is this daemon's shard ID: its index in Peers and its
	// hypercube address.
	SelfID int
	// Peers lists every shard's base URL by shard ID, self included.
	Peers []string
	PeerOptions
}

// clusterNode is the server's cluster-mode state.
type clusterNode struct {
	m    *cluster.Membership
	fwd  *http.Client
	stop context.CancelFunc
	done chan struct{}

	// Replication machinery (replica.go): the async push queue toward
	// Gray-ring standbys.
	rep *replicator

	// Anti-entropy repair worker (antientropy.go): periodic digest
	// exchange with the standby, kicked immediately on epoch changes and
	// replica-queue overflow.
	ae *antiEntropy
}

// EnableCluster switches the server into cluster mode: it joins the
// peer roster as shard SelfID, registers GET /v1/cluster and the
// replica-push endpoint, starts the background health prober (unless
// ProbeInterval < 0) and the replication workers, and makes /v1/plan and
// /v1/simulate ownership-aware. Call it after New and before serving
// traffic.
func (s *Server) EnableCluster(opts ClusterOptions) error {
	return s.enableCluster(opts, nil)
}

// enableCluster is EnableCluster with an optional adopted cluster map:
// when joinMap is non-nil, membership bootstraps from it instead of the
// static Peers list (the dynamic-join path, where SelfID is the ID the
// seed assigned).
func (s *Server) enableCluster(opts ClusterOptions, joinMap *cluster.Map) error {
	if s.cnode() != nil {
		return errors.New("serve: cluster already enabled")
	}
	ccfg := cluster.Config{
		Self:          opts.SelfID,
		Peers:         opts.Peers,
		ProbeInterval: opts.ProbeInterval,
		ProbeTimeout:  opts.ProbeTimeout,
		FailThreshold: opts.FailThreshold,
		Prober:        opts.Prober,
	}
	var m *cluster.Membership
	var err error
	if joinMap != nil {
		m, err = cluster.NewFromMap(ccfg, *joinMap)
	} else {
		m, err = cluster.New(ccfg)
	}
	if err != nil {
		return err
	}
	fwd := opts.ForwardClient
	if fwd == nil {
		fwd = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	cn := &clusterNode{m: m, fwd: fwd, done: make(chan struct{})}
	cn.rep = newReplicator(s, cn)
	if opts.ProbeInterval < 0 {
		close(cn.done) // manual probing: nothing to stop
	} else {
		ctx, cancel := context.WithCancel(context.Background())
		cn.stop = cancel
		go func() {
			defer close(cn.done)
			m.Run(ctx, func(failures int) { s.metrics.probeFailures.Add(int64(failures)) })
		}()
	}
	aeInterval := opts.AntiEntropyInterval
	if aeInterval == 0 {
		aeInterval = defaultAntiEntropyInterval
	}
	if aeInterval > 0 {
		cn.ae = newAntiEntropy(s, cn, aeInterval)
	}
	s.clusterPtr.Store(cn)
	s.mux.HandleFunc("GET /v1/cluster", s.instrument("/v1/cluster", s.handleClusterStatus))
	s.mux.HandleFunc("POST /v1/replica", s.instrument("/v1/replica", s.requireInternal(s.handleReplica)))
	s.mux.HandleFunc("GET /v1/replica/digest", s.instrument("/v1/replica/digest", s.requireInternal(s.handleReplicaDigest)))
	s.mux.HandleFunc("GET /v1/replica/pull", s.instrument("/v1/replica/pull", s.requireInternal(s.handleReplicaPull)))
	return nil
}

// ClusterMembership exposes the membership table (nil when cluster mode
// is off) for startup logging and tests.
func (s *Server) ClusterMembership() *cluster.Membership {
	cn := s.cnode()
	if cn == nil {
		return nil
	}
	return cn.m
}

// stopProbing halts the background prober and waits for it to exit.
func (cn *clusterNode) stopProbing() {
	if cn.stop != nil {
		cn.stop()
	}
	<-cn.done
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	cn := s.cnode()
	writeJSON(w, http.StatusOK, api.ClusterStatus{
		Self:   cn.m.Self(),
		N:      cn.m.N(),
		Dim:    cn.m.Dim(),
		Epoch:  cn.m.Epoch(),
		Map:    cn.m.Map(),
		Shards: cn.m.Snapshot(),
		Stats: &api.ClusterNodeStats{
			Computations:     s.metrics.planComputations.Load(),
			ReplicasSent:     s.metrics.replicasSent.Load(),
			ReplicasReceived: s.metrics.replicasReceived.Load(),
			ReplicaQueue:     cn.rep.queueDepth(),
		},
	})
}

// forwardState reads the hop count and visited path off a request.
func forwardState(r *http.Request) (hops int, visited []int) {
	if h, err := strconv.Atoi(r.Header.Get(hopHeader)); err == nil && h > 0 {
		hops = h
	}
	for _, f := range strings.Split(r.Header.Get(pathHeader), ",") {
		if id, err := strconv.Atoi(strings.TrimSpace(f)); err == nil {
			visited = append(visited, id)
		}
	}
	return hops, visited
}

// propagatedDeadline reads the absolute deadline a forwarding hop (or a
// deadline-aware client) attached to the request.
func propagatedDeadline(r *http.Request) (time.Time, bool) {
	v := r.Header.Get(api.DeadlineHeader)
	if v == "" {
		return time.Time{}, false
	}
	us, err := strconv.ParseInt(v, 10, 64)
	if err != nil || us <= 0 {
		return time.Time{}, false
	}
	return time.UnixMicro(us), true
}

// maybeForward routes a request one e-cube hop toward its owner and
// proxies the response back. It returns true iff the response has been
// written. Every failure mode — budget exhausted, loop detected, peer
// unreachable — falls back to serving locally, so forwarding can delay a
// response but never lose one. The one exception is a request whose
// propagated deadline has already passed: the client is gone, so the
// only wrong answer is to spend compute on it — reject with 504.
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, path, key string, body []byte, timeoutMS int64) bool {
	cn := s.cnode()
	if cn == nil {
		return false
	}
	if d, ok := propagatedDeadline(r); ok && !time.Now().Before(d) {
		s.metrics.forwardDeadlineRejects.Add(1)
		writeError(w, http.StatusGatewayTimeout,
			fmt.Errorf("serve: propagated deadline %s already passed", d.UTC().Format(time.RFC3339Nano)))
		return true
	}
	hops, visited := forwardState(r)
	if hops > 0 {
		s.metrics.forwardsReceived.Add(1)
		s.metrics.forwardHops.Add(int64(hops))
	}
	self := cn.m.Self()
	owner := cn.m.Owner(key)
	if owner == self {
		return false
	}
	if hops >= cn.m.Dim() || containsInt(visited, self) {
		s.metrics.forwardBudgetStops.Add(1)
		s.cfg.Logger.Warn("forward budget exhausted; serving locally",
			"key", key, "owner", owner, "hops", hops, "visited", visited)
		return false
	}
	// The deadline travels with the request: first hop derives it from
	// the client's effective timeout, later hops relay it unchanged, and
	// the forwarding context itself stops at it — a dead peer costs at
	// most the remaining budget, not a full transport timeout.
	deadline, ok := propagatedDeadline(r)
	if !ok {
		deadline = time.Now().Add(s.timeoutFor(timeoutMS))
	}
	fctx, fcancel := context.WithDeadline(r.Context(), deadline)
	defer fcancel()
	next := cn.m.NextHop(owner)
	resp, err := cn.forward(fctx, path, body, hops+1, append(visited, self), next, r.Header.Get("If-None-Match"), deadline)
	if err != nil {
		s.metrics.forwardErrors.Add(1)
		// Unreachable peer: mark it dead now instead of waiting out the
		// probe cycle (a later successful probe revives it) and serve the
		// request ourselves.
		cn.m.MarkDead(next)
		s.cfg.Logger.Warn("forward failed; serving locally",
			"next", next, "owner", owner, "err", err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable &&
		resp.Header.Get(api.ReadOnlyHeader) == "1" && s.writableStore() == nil {
		// The owner's store latched read-only, so it refused the write —
		// but the plan is a pure function of the request, so this shard
		// can compute and durably own a copy itself. Don't mark the peer
		// dead: it is healthy, just not writable.
		s.metrics.forwardReadOnlyLocal.Add(1)
		s.cfg.Logger.Warn("owner store read-only; serving locally",
			"key", key, "owner", owner)
		return false
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if ro := resp.Header.Get(api.ReadOnlyHeader); ro != "" {
		w.Header().Set(api.ReadOnlyHeader, ro)
	}
	if et := resp.Header.Get("ETag"); et != "" {
		w.Header().Set("ETag", et)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	s.metrics.forwardsSent.Add(1)
	return true
}

// forward performs one hop of e-cube routing over HTTP. inm relays the
// client's If-None-Match so the owner can answer 304 end to end;
// deadline rides api.DeadlineHeader so every downstream hop shares the
// same absolute budget.
func (cn *clusterNode) forward(ctx context.Context, path string, body []byte, hops int, visited []int, next int, inm string, deadline time.Time) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cn.m.URL(next)+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(hopHeader, strconv.Itoa(hops))
	req.Header.Set(pathHeader, joinInts(visited))
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	if !deadline.IsZero() {
		req.Header.Set(api.DeadlineHeader, strconv.FormatInt(deadline.UnixMicro(), 10))
	}
	return cn.fwd.Do(req)
}

// clusterMeta builds the response's shard metadata (nil outside cluster
// mode).
func (s *Server) clusterMeta(key string, r *http.Request) *api.ClusterInfo {
	cn := s.cnode()
	if cn == nil {
		return nil
	}
	hops, _ := forwardState(r)
	return &api.ClusterInfo{Shard: cn.m.Self(), Owner: cn.m.Owner(key), Hops: hops, Epoch: cn.m.Epoch()}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func joinInts(xs []int) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	return b.String()
}
