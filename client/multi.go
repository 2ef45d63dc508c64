// Multi is the cluster-aware client: one *Client per endpoint (each with
// its own circuit breaker), owner-affinity routing once a response has
// revealed the shard map, and failover to the remaining endpoints when
// the preferred one is down or its breaker is open.
//
// Routing mirrors the server exactly: the canonical plan-cache key
// (api.PlanRequest.Key) is rendezvous-hashed over the active shard set
// from the last /v1/cluster snapshot, then redirected along the Gray
// ring to the standby when the primary is down — the same ServingOwner
// walk the daemons use, so a failover lands on the shard already holding
// the replicas. The view is epoch-versioned: every plan response carries
// the serving shard's map epoch, and a mismatch against the local view
// triggers a refresh — the client learns about joins, leaves, and deaths
// from ordinary traffic, not only after its own failovers. Endpoints are
// elastic too: a shard URL learned from the map that isn't in the
// configured endpoint list gets a client on the fly.
package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/cluster"
)

// MultiConfig tunes a Multi. Config (minus BaseURL, which Endpoints
// replaces) is applied to every per-endpoint Client, so one HTTPClient —
// and its connection pool — is shared across all endpoints.
type MultiConfig struct {
	// Endpoints lists the daemons' base URLs. Order does not need to
	// match shard IDs: the shard map is learned from /v1/cluster.
	Endpoints []string
	// Config carries the per-endpoint tuning (retries, backoff, breaker,
	// hedging, HTTPClient). Its BaseURL is ignored.
	Config Config
	// RetryBudget caps the total HTTP attempts one logical call may spend
	// across all endpoints — retries, failovers, and hedges combined
	// (default 8, negative disables). Per-endpoint MaxRetries bounds each
	// endpoint's loop; this bounds the whole call, so a cluster-wide
	// outage costs a fixed number of attempts instead of endpoints ×
	// retries × hedges.
	RetryBudget int
	// Clock overrides time.Now for the read-only demotion window (tests).
	Clock func() time.Time
}

// shardMap is one immutable snapshot of the cluster's ownership view.
type shardMap struct {
	epoch      uint64       // cluster-map epoch this view was built from
	active     []int        // state-up shard IDs (HRW candidates), sorted
	alive      map[int]bool // probed liveness by shard ID
	endpointOf map[int]int  // shard ID → index into Multi.clients
}

// Multi is a cluster-aware loopmapd client. It is safe for concurrent
// use.
type Multi struct {
	cfg         Config // per-endpoint tuning, reused for learned endpoints
	retryBudget int    // attempt cap per logical call (0 = disabled)
	mu          sync.RWMutex
	clients     []*Client // grows when the map reveals new shard URLs

	view atomic.Pointer[shardMap]
	// noCluster latches when /v1/cluster 404s: a single-daemon
	// deployment, so stop asking.
	noCluster atomic.Bool
	cursor    atomic.Uint64 // round-robin start for non-affine calls
	refreshMu sync.Mutex

	// read-only demotion state: endpoint index → demotion deadline.
	now     func() time.Time
	roMu    sync.Mutex
	roUntil map[int]time.Time

	ownerRouted    atomic.Int64
	failovers      atomic.Int64
	mapRefreshes   atomic.Int64
	epochRefreshes atomic.Int64
	readOnlySkips  atomic.Int64
}

// NewMulti builds a Multi over the given endpoints.
func NewMulti(cfg MultiConfig) (*Multi, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("client: NewMulti requires at least one endpoint")
	}
	budget := cfg.RetryBudget
	if budget == 0 {
		budget = 8
	}
	if budget < 0 {
		budget = 0
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	m := &Multi{
		cfg: cfg.Config, retryBudget: budget,
		clients: make([]*Client, len(cfg.Endpoints)),
		now:     now, roUntil: make(map[int]time.Time),
	}
	seen := make(map[string]bool, len(cfg.Endpoints))
	for i, url := range cfg.Endpoints {
		c := cfg.Config
		c.BaseURL = url
		m.clients[i] = New(c)
		norm := m.clients[i].BaseURL()
		if norm == "" || seen[norm] {
			return nil, fmt.Errorf("client: endpoint %d (%q) is empty or duplicate", i, url)
		}
		seen[norm] = true
	}
	return m, nil
}

// snapshotClients returns the current client list; indexes into it stay
// valid forever (the list only appends).
func (m *Multi) snapshotClients() []*Client {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.clients
}

// client returns the endpoint client at index i.
func (m *Multi) client(i int) *Client {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.clients[i]
}

// Endpoints returns the normalized endpoint base URLs — configured ones
// first, then any learned from the cluster map — in index order.
func (m *Multi) Endpoints() []string {
	clients := m.snapshotClients()
	out := make([]string, len(clients))
	for i, c := range clients {
		out[i] = c.BaseURL()
	}
	return out
}

// order returns endpoint indexes in preference order for a call keyed by
// key, and whether the first entry is the key's serving owner. With no
// key or no learned map, it is plain round-robin.
func (m *Multi) order(key string) (idxs []int, affine bool) {
	n := len(m.snapshotClients())
	seen := make([]bool, n)
	idxs = make([]int, 0, n)
	if key != "" {
		if v := m.view.Load(); v != nil && len(v.active) > 0 {
			owner := cluster.ServingOwner(key, v.active, func(id int) bool { return v.alive[id] })
			if i, ok := v.endpointOf[owner]; ok && i < n {
				idxs = append(idxs, i)
				seen[i] = true
				affine = true
			}
		}
	}
	start := int(m.cursor.Add(1)-1) % n
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if !seen[i] {
			idxs = append(idxs, i)
			seen[i] = true
		}
	}
	if key != "" {
		// Keyed calls may need a durable write, which a read-only shard
		// refuses: demote known-read-only endpoints to last preference
		// (still tried — they serve cache hits — just not first).
		writable := idxs[:0:0]
		var demoted []int
		for _, i := range idxs {
			if m.isReadOnly(i) {
				demoted = append(demoted, i)
			} else {
				writable = append(writable, i)
			}
		}
		if len(demoted) > 0 {
			affine = affine && len(writable) > 0 && writable[0] == idxs[0]
			idxs = append(writable, demoted...)
		}
	}
	return idxs, affine
}

// readOnlyTTL is how long an endpoint that answered a write with a
// read-only 503 (its durable store latched after a disk fault) is
// demoted to last preference for keyed calls. It stays fully eligible
// for keyless calls and as the failover of last resort — a read-only
// shard still serves cache hits.
const readOnlyTTL = 15 * time.Second

// markReadOnly demotes endpoint i for keyed calls for readOnlyTTL.
func (m *Multi) markReadOnly(i int) {
	m.readOnlySkips.Add(1)
	m.roMu.Lock()
	m.roUntil[i] = m.now().Add(readOnlyTTL)
	m.roMu.Unlock()
}

// isReadOnly reports whether endpoint i is inside its demotion window.
func (m *Multi) isReadOnly(i int) bool {
	m.roMu.Lock()
	defer m.roMu.Unlock()
	until, ok := m.roUntil[i]
	return ok && m.now().Before(until)
}

// call runs fn against endpoints in preference order until one succeeds.
// A 4xx other than 429 is terminal — the server is healthy and the
// request is wrong, so trying its siblings would just repeat the
// rejection. Everything else (transport errors, open breakers, 5xx,
// 429/503 exhaustion) fails over. After any failover — or before the
// shard map is first learned — the map is refreshed from the endpoint
// that answered.
func (m *Multi) call(ctx context.Context, key string, fn func(context.Context, *Client) error) error {
	// One attempt budget for the whole logical call: every endpoint's
	// retry loop and every hedge draws from the same pool, so the
	// worst-case wire cost is m.retryBudget, not endpoints × retries.
	if m.retryBudget > 0 && budgetFrom(ctx) == nil {
		ctx = WithAttemptBudget(ctx, m.retryBudget)
	}
	idxs, affine := m.order(key)
	var lastErr error
	for rank, i := range idxs {
		if rank > 0 {
			m.failovers.Add(1)
		}
		c := m.client(i)
		err := fn(ctx, c)
		if err == nil {
			if affine && rank == 0 {
				m.ownerRouted.Add(1)
			}
			if rank > 0 || (m.view.Load() == nil && !m.noCluster.Load()) {
				m.refresh(ctx, c)
			}
			return nil
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			if apiErr.ReadOnly {
				// This shard's store is read-only: remember it so the
				// next keyed calls go elsewhere first, then fail over.
				m.markReadOnly(i)
			} else if apiErr.Status >= 400 && apiErr.Status < 500 &&
				apiErr.Status != http.StatusTooManyRequests {
				return err
			}
		}
		lastErr = err
		if errors.Is(err, ErrBudgetExhausted) {
			break // nothing left to spend on the remaining endpoints
		}
		if ctx.Err() != nil {
			break
		}
	}
	return lastErr
}

// noteEpoch compares a response's map epoch against the local view and
// refreshes the map from the shard that answered on any mismatch — the
// cheap path by which joins, leaves, and deaths reach the client.
func (m *Multi) noteEpoch(ctx context.Context, ci *api.ClusterInfo, c *Client) {
	if ci == nil || ci.Epoch == 0 {
		return
	}
	v := m.view.Load()
	if v != nil && v.epoch == ci.Epoch {
		return
	}
	m.epochRefreshes.Add(1)
	m.refresh(ctx, c)
}

// refresh re-learns the shard map from one endpoint's /v1/cluster. A 404
// latches single-daemon mode; any other failure keeps the current view.
func (m *Multi) refresh(ctx context.Context, c *Client) {
	st, err := c.ClusterStatus(ctx)
	if err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
			m.noCluster.Store(true)
		}
		return
	}
	m.adopt(st)
}

// adopt installs a membership snapshot as the routing view, creating
// clients for shard URLs the configured endpoint list doesn't know.
func (m *Multi) adopt(st *api.ClusterStatus) {
	m.refreshMu.Lock()
	defer m.refreshMu.Unlock()
	v := &shardMap{
		epoch:      st.Epoch,
		alive:      make(map[int]bool, len(st.Shards)),
		endpointOf: make(map[int]int, len(st.Shards)),
	}
	for _, sh := range st.Shards {
		v.endpointOf[sh.ID] = m.endpointIndex(sh.URL)
		v.alive[sh.ID] = sh.Alive
		// Pre-epoch daemons omit State; treating their whole roster as
		// active reproduces the old alive-set routing.
		if sh.State == "" || sh.State == cluster.StateUp {
			v.active = append(v.active, sh.ID)
		}
	}
	m.view.Store(v)
	m.mapRefreshes.Add(1)
}

// endpointIndex matches a shard's advertised URL to an endpoint client,
// creating one when the URL is new (a shard that joined after NewMulti).
func (m *Multi) endpointIndex(url string) int {
	url = strings.TrimRight(url, "/")
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, c := range m.clients {
		if c.BaseURL() == url {
			return i
		}
	}
	cfg := m.cfg
	cfg.BaseURL = url
	m.clients = append(m.clients, New(cfg))
	return len(m.clients) - 1
}

// Plan requests a plan, routed to the key's serving owner when the map
// is known.
func (m *Multi) Plan(ctx context.Context, req *api.PlanRequest) (*api.PlanResponse, error) {
	var out *api.PlanResponse
	var served *Client
	err := m.call(ctx, req.Key(), func(ctx context.Context, c *Client) error {
		r, err := c.Plan(ctx, req)
		if err == nil {
			out, served = r, c
		}
		return err
	})
	if err == nil && out != nil {
		m.noteEpoch(ctx, out.Cluster, served)
	}
	return out, err
}

// Simulate plans and simulates a kernel, routed by the embedded plan
// request's key (the simulation reuses the owner's cached plan).
func (m *Multi) Simulate(ctx context.Context, req *api.SimulateRequest) (*api.SimulateResponse, error) {
	var out *api.SimulateResponse
	var served *Client
	err := m.call(ctx, req.PlanRequest.Key(), func(ctx context.Context, c *Client) error {
		r, err := c.Simulate(ctx, req)
		if err == nil {
			out, served = r, c
		}
		return err
	})
	if err == nil && out != nil {
		m.noteEpoch(ctx, out.Cluster, served)
	}
	return out, err
}

// SPMD compiles loop-DSL source on any available shard (uncached, so no
// affinity).
func (m *Multi) SPMD(ctx context.Context, req *api.SPMDRequest) (*api.SPMDResponse, error) {
	var out *api.SPMDResponse
	err := m.call(ctx, "", func(ctx context.Context, c *Client) error {
		r, err := c.SPMD(ctx, req)
		if err == nil {
			out = r
		}
		return err
	})
	return out, err
}

// Kernels lists built-in kernels from any available shard.
func (m *Multi) Kernels(ctx context.Context) ([]api.KernelInfo, error) {
	var out []api.KernelInfo
	err := m.call(ctx, "", func(ctx context.Context, c *Client) error {
		r, err := c.Kernels(ctx)
		if err == nil {
			out = r
		}
		return err
	})
	return out, err
}

// ClusterStatus returns the membership table from the first endpoint
// that answers, refreshing the routing map as a side effect.
func (m *Multi) ClusterStatus(ctx context.Context) (*api.ClusterStatus, error) {
	var out *api.ClusterStatus
	err := m.call(ctx, "", func(ctx context.Context, c *Client) error {
		r, err := c.ClusterStatus(ctx)
		if err == nil {
			out = r
		}
		return err
	})
	if out != nil {
		m.adopt(out)
	}
	return out, err
}

// Ready returns nil iff at least one endpoint is accepting traffic.
func (m *Multi) Ready(ctx context.Context) error {
	var lastErr error
	for _, c := range m.snapshotClients() {
		if err := c.Ready(ctx); err == nil {
			return nil
		} else {
			lastErr = err
		}
	}
	return lastErr
}

// ReadyAll returns nil iff every endpoint is accepting traffic.
func (m *Multi) ReadyAll(ctx context.Context) error {
	for _, c := range m.snapshotClients() {
		if err := c.Ready(ctx); err != nil {
			return fmt.Errorf("client: endpoint %s not ready: %w", c.BaseURL(), err)
		}
	}
	return nil
}

// Stats aggregates every endpoint's counters and attaches the
// per-endpoint breakdown plus the Multi's own routing counters.
func (m *Multi) Stats() ClientStats {
	clients := m.snapshotClients()
	agg := ClientStats{
		OwnerRouted:    m.ownerRouted.Load(),
		Failovers:      m.failovers.Load(),
		MapRefreshes:   m.mapRefreshes.Load(),
		EpochRefreshes: m.epochRefreshes.Load(),
		ReadOnlySkips:  m.readOnlySkips.Load(),
		PerEndpoint:    make(map[string]ClientStats, len(clients)),
	}
	for _, c := range clients {
		s := c.Stats()
		agg.Requests += s.Requests
		agg.Attempts += s.Attempts
		agg.Retries += s.Retries
		agg.Successes += s.Successes
		agg.Failures += s.Failures
		agg.Hedges += s.Hedges
		agg.HedgeWins += s.HedgeWins
		agg.RetryAfterHonored += s.RetryAfterHonored
		agg.BudgetExhausted += s.BudgetExhausted
		agg.BreakerOpens += s.BreakerOpens
		agg.BreakerRejects += s.BreakerRejects
		agg.PerEndpoint[c.BaseURL()] = s
	}
	return agg
}
