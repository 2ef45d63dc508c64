package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/hypercube"
)

// Prober checks one peer's liveness. The production implementation is
// HTTPProber; tests inject deterministic fakes.
type Prober interface {
	// Probe returns nil iff the shard at url is healthy.
	Probe(ctx context.Context, url string) error
}

// MapProber is an optional Prober extension that also fetches the peer's
// cluster map, turning the probe loop into the gossip channel: one GET
// both measures liveness and propagates epochs. Probers that implement
// only Probe (the deterministic test fakes) get pure liveness ticks.
type MapProber interface {
	// ProbeMap returns the peer's current cluster map. A nil error with a
	// zero-epoch map means "alive, but no map information" (e.g. a peer
	// that has not enabled cluster mode yet).
	ProbeMap(ctx context.Context, url string) (Map, error)
}

// HTTPProber probes a shard's /healthz endpoint.
type HTTPProber struct {
	// Client is the probe transport (default http.DefaultClient; the
	// per-probe context carries the timeout).
	Client *http.Client
}

// Probe GETs url/healthz and treats any 2xx as alive.
func (p HTTPProber) Probe(ctx context.Context, url string) error {
	c := p.Client
	if c == nil {
		c = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(url, "/")+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("cluster: probe %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// ProbeMap GETs url/v1/cluster: any 2xx is alive, and the embedded map
// (when present and decodable) rides back for epoch gossip. A 404 — a
// daemon not yet in cluster mode — still counts as alive.
func (p HTTPProber) ProbeMap(ctx context.Context, url string) (Map, error) {
	c := p.Client
	if c == nil {
		c = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(url, "/")+"/v1/cluster", nil)
	if err != nil {
		return Map{}, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return Map{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return Map{}, nil
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		io.Copy(io.Discard, resp.Body)
		return Map{}, fmt.Errorf("cluster: probe %s: status %d", url, resp.StatusCode)
	}
	var body struct {
		Map Map `json:"map"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		// Alive but unintelligible (version skew): liveness stands, no
		// gossip from this peer this round.
		return Map{}, nil
	}
	return body.Map, nil
}

// Config describes a cluster from one member's point of view.
type Config struct {
	// Self is this process's shard ID — its index in Peers and its
	// hypercube address.
	Self int
	// Peers lists every shard's base URL, indexed by shard ID (self
	// included). Ignored by NewFromMap, which takes the roster from an
	// adopted cluster map instead.
	Peers []string
	// ProbeInterval is the health-probe period of Run (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each individual probe (default 1s).
	ProbeTimeout time.Duration
	// FailThreshold consecutive probe failures mark a peer dead; one
	// success revives it (default 3).
	FailThreshold int
	// Prober overrides the health check (default HTTPProber{}). A Prober
	// that also implements MapProber turns probes into epoch gossip.
	Prober Prober
	// Now overrides the clock for deterministic tests (default time.Now).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Prober == nil {
		c.Prober = HTTPProber{}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// PeerStatus is one shard's health as seen by this member.
type PeerStatus struct {
	ID    int    `json:"id"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	Self  bool   `json:"self,omitempty"`
	// State is the shard's roster state ("up" or "joining"; tombstones
	// are omitted from snapshots).
	State string `json:"state,omitempty"`
	// ConsecutiveFails counts probe failures since the last success.
	ConsecutiveFails int `json:"consecutive_fails,omitempty"`
	// LastError describes the most recent probe failure ("" when none).
	LastError string `json:"last_error,omitempty"`
}

type peerState struct {
	alive   bool
	fails   int
	lastErr error
}

// Membership tracks the epoch-versioned cluster map and each member's
// probed health. Methods are safe for concurrent use.
type Membership struct {
	cfg Config

	mu     sync.Mutex
	roster Map
	cube   hypercube.Cube
	peers  map[int]*peerState
}

// New validates the config and returns a Membership over the static
// -peers roster at epoch 1, with every shard initially presumed alive
// (optimism lets the cluster form before the first probe round
// completes). Every member of a static cluster builds the identical map,
// so gossip only matters once membership actually changes.
func New(cfg Config) (*Membership, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Peers) {
		return nil, fmt.Errorf("cluster: self ID %d out of range [0, %d)", cfg.Self, len(cfg.Peers))
	}
	for i, u := range cfg.Peers {
		if strings.TrimSpace(u) == "" {
			return nil, fmt.Errorf("cluster: peer %d has an empty URL", i)
		}
	}
	return newFromRoster(cfg, StaticMap(cfg.Peers))
}

// NewFromMap returns a Membership bootstrapped from an adopted cluster
// map — the join path: the seed assigns an ID and hands over its roster,
// and the joiner starts probing from there. Self must appear in the map
// as a non-tombstone.
func NewFromMap(cfg Config, m Map) (*Membership, error) {
	cfg = cfg.withDefaults()
	return newFromRoster(cfg, m.Clone())
}

func newFromRoster(cfg Config, roster Map) (*Membership, error) {
	if err := roster.Validate(); err != nil {
		return nil, err
	}
	i := roster.Find(cfg.Self)
	if i < 0 || roster.Shards[i].State == StateLeft {
		return nil, fmt.Errorf("cluster: self ID %d not a live member of the map", cfg.Self)
	}
	m := &Membership{cfg: cfg, roster: roster, peers: map[int]*peerState{}}
	m.rebuildLocked()
	return m, nil
}

// rebuildLocked resyncs the derived state (cube geometry, per-peer probe
// table) with the roster. Probe state of retained members survives; new
// members start from the map's Down hint; tombstones are dropped.
func (m *Membership) rebuildLocked() {
	maxID := 0
	keep := map[int]bool{}
	for _, s := range m.roster.Shards {
		if s.State == StateLeft {
			continue
		}
		keep[s.ID] = true
		if s.ID > maxID {
			maxID = s.ID
		}
		if _, ok := m.peers[s.ID]; !ok {
			m.peers[s.ID] = &peerState{alive: !s.Down || s.ID == m.cfg.Self}
		}
	}
	for id := range m.peers {
		if !keep[id] {
			delete(m.peers, id)
		}
	}
	m.cube = hypercube.FromProcessors(maxID + 1)
}

// bumpLocked publishes a local roster edit: epoch past everything seen,
// origin self.
func (m *Membership) bumpLocked() {
	m.roster.Epoch++
	m.roster.Origin = m.cfg.Self
}

// Self returns this member's shard ID.
func (m *Membership) Self() int { return m.cfg.Self }

// N returns the cluster size (members not yet departed).
func (m *Membership) N() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.roster.Shards {
		if s.State != StateLeft {
			n++
		}
	}
	return n
}

// Dim returns the hypercube dimension ⌈log₂(maxID+1)⌉ — the forwarding
// hop budget.
func (m *Membership) Dim() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cube.Dim
}

// Epoch returns the current cluster-map epoch.
func (m *Membership) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.roster.Epoch
}

// Map returns a deep copy of the current cluster map.
func (m *Membership) Map() Map {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.roster.Clone()
}

// URL returns shard id's base URL ("" for unknown IDs).
func (m *Membership) URL(id int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := m.roster.Find(id); i >= 0 {
		return m.roster.Shards[i].URL
	}
	return ""
}

// IsAlive reports shard id's probed health (self is always alive;
// tombstones and unknown IDs never are).
func (m *Membership) IsAlive(id int) bool {
	if id == m.cfg.Self {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[id]
	return ok && p.alive
}

// ActiveIDs returns the sorted IDs of every state-up shard — the HRW
// ownership candidates, independent of probed liveness (a primary's
// keyspace does not rehash away during a transient death; the Gray-ring
// standby covers it instead, and keys return when the primary revives).
func (m *Membership) ActiveIDs() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.roster.Active()
}

// Owner returns the shard that should serve key right now: the HRW
// primary over the active set while it is alive, otherwise the first
// alive shard on the Gray ring from the primary — the standby holding
// its replicas (hinted handoff).
func (m *Membership) Owner(key string) int {
	active := m.ActiveIDs()
	if len(active) == 0 {
		return m.cfg.Self
	}
	return ServingOwner(key, active, m.IsAlive)
}

// NextHop returns the next shard on the e-cube route from self toward
// `to`, skipping dead or unpopulated addresses.
func (m *Membership) NextHop(to int) int {
	m.mu.Lock()
	cube := m.cube
	m.mu.Unlock()
	return NextHop(cube, m.cfg.Self, to, m.IsAlive)
}

// MarkDead forces shard id dead immediately (forward-failure feedback:
// a peer that refuses a forwarded request should not wait out the probe
// cycle). Self cannot be marked dead. The next successful probe revives
// the peer. A liveness transition publishes a Down hint with an epoch
// bump so the failure propagates with the map.
func (m *Membership) MarkDead(id int) {
	if id == m.cfg.Self {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[id]
	if !ok {
		return
	}
	transition := p.alive
	p.alive = false
	if p.fails < m.cfg.FailThreshold {
		p.fails = m.cfg.FailThreshold
	}
	if transition {
		m.setDownLocked(id, true)
	}
}

// setDownLocked syncs one shard's Down hint into the roster and bumps
// the epoch so the event gossips.
func (m *Membership) setDownLocked(id int, down bool) {
	if i := m.roster.Find(id); i >= 0 && m.roster.Shards[i].Down != down {
		m.roster.Shards[i].Down = down
		m.bumpLocked()
	}
}

// AdoptMap merges a gossiped cluster map: strictly newer maps replace
// the roster (probe state of retained members survives); anything else
// is ignored. A map that drops self — or tombstones it — is refused:
// membership edits about self flow through Leave, not gossip. If the
// adopted map claims self is down, the claim is corrected with a fresh
// bump (we are demonstrably alive). Reports whether the map was adopted.
func (m *Membership) AdoptMap(in Map) bool {
	if in.Validate() != nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !in.Newer(m.roster) {
		return false
	}
	i := in.Find(m.cfg.Self)
	if i < 0 || in.Shards[i].State == StateLeft {
		return false
	}
	m.roster = in.Clone()
	m.rebuildLocked()
	if j := m.roster.Find(m.cfg.Self); j >= 0 && m.roster.Shards[j].Down {
		m.roster.Shards[j].Down = false
		m.bumpLocked()
	}
	return true
}

// AddShard admits a new member (the /v1/admin/join path): the URL gets
// the lowest never-used ID in state joining, and the bumped map is
// returned for the joiner to bootstrap from. Re-joining an existing URL
// is idempotent; a tombstoned URL is revived into state joining under
// its old ID.
func (m *Membership) AddShard(url string) (int, Map, error) {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	if url == "" {
		return 0, Map{}, fmt.Errorf("cluster: join with an empty URL")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := m.roster.FindURL(url); i >= 0 {
		s := &m.roster.Shards[i]
		if s.State == StateLeft {
			s.State = StateJoining
			s.Down = false
			m.bumpLocked()
			m.rebuildLocked()
		}
		return s.ID, m.roster.Clone(), nil
	}
	used := map[int]bool{}
	for _, s := range m.roster.Shards {
		used[s.ID] = true
	}
	id := 0
	for used[id] {
		id++
	}
	m.roster.Shards = append(m.roster.Shards, MapShard{ID: id, URL: url, State: StateJoining})
	sort.Slice(m.roster.Shards, func(a, b int) bool { return m.roster.Shards[a].ID < m.roster.Shards[b].ID })
	m.bumpLocked()
	m.rebuildLocked()
	return id, m.roster.Clone(), nil
}

// Activate flips a joining shard to state up — it has caught up on its
// keyspace and owns it from this epoch on.
func (m *Membership) Activate(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.roster.Find(id)
	if i < 0 || m.roster.Shards[i].State == StateLeft {
		return fmt.Errorf("cluster: activate unknown shard %d", id)
	}
	if m.roster.Shards[i].State == StateUp {
		return nil
	}
	m.roster.Shards[i].State = StateUp
	m.roster.Shards[i].Down = false
	m.bumpLocked()
	m.rebuildLocked()
	return nil
}

// Leave tombstones a member (the /v1/admin/leave path). Its ID is
// retired — never reused — so ownership stays coherent for laggards.
func (m *Membership) Leave(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.roster.Find(id)
	if i < 0 || m.roster.Shards[i].State == StateLeft {
		return fmt.Errorf("cluster: leave unknown shard %d", id)
	}
	m.roster.Shards[i].State = StateLeft
	m.bumpLocked()
	m.rebuildLocked()
	return nil
}

// Tick runs one probe round over every member (concurrently, each
// bounded by ProbeTimeout) and applies the threshold rule: FailThreshold
// consecutive failures mark a peer dead, one success revives it.
// Liveness transitions publish Down hints with an epoch bump. When the
// prober also implements MapProber, probes double as gossip: the newest
// map seen this round is adopted. Tick returns the number of failed
// probes. Tests drive Tick directly with an injected prober; Run drives
// it on a timer.
func (m *Membership) Tick(ctx context.Context) int {
	type target struct {
		id  int
		url string
	}
	m.mu.Lock()
	targets := make([]target, 0, len(m.roster.Shards))
	for _, s := range m.roster.Shards {
		if s.ID != m.cfg.Self && s.State != StateLeft {
			targets = append(targets, target{s.ID, s.URL})
		}
	}
	m.mu.Unlock()

	mp, gossip := m.cfg.Prober.(MapProber)
	type result struct {
		id   int
		err  error
		peer Map
	}
	results := make(chan result, len(targets))
	for _, t := range targets {
		go func(t target) {
			pctx, cancel := context.WithTimeout(ctx, m.cfg.ProbeTimeout)
			defer cancel()
			if gossip {
				pm, err := mp.ProbeMap(pctx, t.url)
				results <- result{t.id, err, pm}
				return
			}
			results <- result{t.id, m.cfg.Prober.Probe(pctx, t.url), Map{}}
		}(t)
	}

	failures := 0
	var newest Map
	for range targets {
		r := <-results
		if r.peer.Epoch > 0 && (newest.Epoch == 0 || r.peer.Newer(newest)) {
			newest = r.peer
		}
		m.mu.Lock()
		p, ok := m.peers[r.id]
		if !ok { // departed mid-round via an adopted map
			m.mu.Unlock()
			continue
		}
		if r.err != nil {
			failures++
			p.fails++
			p.lastErr = r.err
			if p.fails >= m.cfg.FailThreshold && p.alive {
				p.alive = false
				m.setDownLocked(r.id, true)
			}
		} else {
			p.fails = 0
			p.lastErr = nil
			if !p.alive {
				p.alive = true
				m.setDownLocked(r.id, false)
			}
		}
		m.mu.Unlock()
	}
	if newest.Epoch > 0 {
		m.AdoptMap(newest)
	}
	return failures
}

// Run probes on a seeded ±20% jitter around ProbeInterval until ctx is
// cancelled, passing each round's failure count (Tick's result) to
// onTick. Unjittered, every shard of a cluster booted together would
// probe the whole mesh on the same beat; the self-ID seed keeps each
// shard's schedule distinct and replayable.
func (m *Membership) Run(ctx context.Context, onTick func(failures int)) {
	rng := fault.NewRNG(0x6c6f6f706d ^ uint64(m.cfg.Self+1))
	t := time.NewTimer(JitterInterval(m.cfg.ProbeInterval, rng))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			onTick(m.Tick(ctx))
			t.Reset(JitterInterval(m.cfg.ProbeInterval, rng))
		}
	}
}

// Snapshot reports every live member's health for /v1/cluster and
// metrics, sorted by shard ID (tombstones omitted).
func (m *Membership) Snapshot() []PeerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerStatus, 0, len(m.roster.Shards))
	for _, s := range m.roster.Shards {
		if s.State == StateLeft {
			continue
		}
		p := m.peers[s.ID]
		if p == nil {
			p = &peerState{}
		}
		st := PeerStatus{
			ID:               s.ID,
			URL:              s.URL,
			Alive:            p.alive || s.ID == m.cfg.Self,
			Self:             s.ID == m.cfg.Self,
			State:            s.State,
			ConsecutiveFails: p.fails,
		}
		if p.lastErr != nil {
			st.LastError = p.lastErr.Error()
		}
		out = append(out, st)
	}
	return out
}
