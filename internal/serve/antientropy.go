// Digest anti-entropy: the repair loop that turns best-effort async
// replication into bounded-staleness convergence. Replication drops
// records under pressure by design (full queue, partitioned standby,
// crashed push); anti-entropy is the process that notices and fixes it.
//
// Each round, a shard summarizes every record it owns (base plans and
// encoded frames, prefixed exactly as they travel over /v1/replica) as
// a Merkle digest — persist.BuildDigest over canonical keys and value
// CRCs — and fetches its Gray-ring standby's digest of the same
// keyspace via GET /v1/replica/digest. Equal roots mean the pair has
// converged and the round cost two small messages. Divergent roots are
// walked down the tree to O(log n) divergent buckets; the owner pushes
// its records in those buckets through the ordinary replica ingest
// path, and pulls the standby's (GET /v1/replica/pull) so records the
// owner lost — an eviction, a restart before the WAL synced — flow
// back too.
//
// Rounds run on a seeded-jittered interval and immediately on: an
// epoch change (membership changed, so standbys moved), a peer
// revival (a partition healed — revival bumps the epoch, so one
// trigger covers both), and replica-queue overflow (records were just
// dropped, so divergence is certain).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/persist"
)

// errNoCluster rejects replica endpoints on a single-daemon server.
var errNoCluster = errors.New("serve: not in cluster mode")

// defaultAntiEntropyInterval paces the periodic digest exchange.
const defaultAntiEntropyInterval = 3 * time.Second

// digestWire is the GET /v1/replica/digest response: a serialized leaf
// row (hex — uint64 does not survive JSON numbers) the requester
// rebuilds a tree from.
type digestWire struct {
	Owner  int      `json:"owner"`
	Depth  int      `json:"depth"`
	Count  int      `json:"count"`
	Root   string   `json:"root"`
	Leaves []string `json:"leaves"`
}

// antiEntropy is one shard's repair worker.
type antiEntropy struct {
	s        *Server
	cn       *clusterNode
	interval time.Duration

	kick     chan struct{}
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newAntiEntropy(s *Server, cn *clusterNode, interval time.Duration) *antiEntropy {
	ae := &antiEntropy{
		s:        s,
		cn:       cn,
		interval: interval,
		kick:     make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
	}
	ae.wg.Add(1)
	go ae.loop()
	return ae
}

func (ae *antiEntropy) stop() {
	ae.stopOnce.Do(func() { close(ae.stopCh) })
	ae.wg.Wait()
}

// requestKick schedules an immediate round (replica-queue overflow).
// Non-blocking: a kick already pending is kick enough.
func (ae *antiEntropy) requestKick() {
	select {
	case ae.kick <- struct{}{}:
	default:
	}
}

// loop paces rounds: seeded ±20% jitter on the interval (shards must
// not exchange digests in lockstep), plus immediate rounds on kicks
// and epoch changes (which cover membership edits and partition heals
// — a probe revival bumps the epoch).
func (ae *antiEntropy) loop() {
	defer ae.wg.Done()
	rng := fault.NewRNG(0x9e3779b97f4a7c15 ^ uint64(ae.cn.m.Self()+1))
	last := ae.cn.m.Epoch()
	next := time.Now().Add(cluster.JitterInterval(ae.interval, rng))
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ae.stopCh:
			return
		case <-ae.kick:
			ae.runRound("overflow")
			next = time.Now().Add(cluster.JitterInterval(ae.interval, rng))
		case <-t.C:
			if e := ae.cn.m.Epoch(); e != last {
				last = e
				ae.runRound("epoch")
				next = time.Now().Add(cluster.JitterInterval(ae.interval, rng))
			} else if time.Now().After(next) {
				ae.runRound("interval")
				next = time.Now().Add(cluster.JitterInterval(ae.interval, rng))
			}
		}
	}
}

// runRound exchanges digests with this shard's standby and repairs any
// divergence. Every owned key shares one standby (the Gray-ring
// successor of the owner), so a round is a single pair exchange.
func (ae *antiEntropy) runRound(trigger string) {
	s, m := ae.s, ae.cn.m
	active := m.ActiveIDs()
	self := m.Self()
	if len(active) < 2 {
		return
	}
	standby := cluster.GraySucc(self, active)
	if standby < 0 || standby == self || !m.IsAlive(standby) {
		return // partitioned or solo: retry next round
	}
	s.metrics.antientropyRounds.Add(1)

	recs := s.replicaRecordsOwnedBy(self, active)
	depth := persist.DigestDepth(len(recs))
	local := persist.BuildDigest(digestEntriesOf(recs), depth)
	remote, err := ae.fetchDigest(standby, self, depth)
	if err != nil {
		s.metrics.antientropyErrors.Add(1)
		return
	}
	if local.Root() == remote.Root() && local.Count() == remote.Count() {
		s.metrics.antientropyCleanRounds.Add(1)
		return
	}
	buckets, _, err := persist.DiffDigests(local, remote)
	if err != nil {
		s.metrics.antientropyErrors.Add(1)
		return
	}
	s.metrics.antientropyDivergentBuckets.Add(int64(len(buckets)))

	inBucket := make(map[int]bool, len(buckets))
	for _, b := range buckets {
		inBucket[b] = true
	}
	var push []persist.Record
	for _, rec := range recs {
		if inBucket[persist.BucketOf(rec.Key, depth)] {
			push = append(push, rec)
		}
	}
	if len(push) > 0 {
		ae.cn.rep.push(standby, push)
		s.metrics.antientropyRecordsPushed.Add(int64(len(push)))
	}
	pulled, err := ae.fetchPull(standby, self, depth, buckets)
	if err != nil {
		s.metrics.antientropyErrors.Add(1)
	} else if len(pulled) > 0 {
		s.metrics.antientropyRecordsPulled.Add(int64(s.ingestRecords(pulled)))
	}
	s.cfg.Logger.Info("anti-entropy repair",
		"trigger", trigger, "standby", standby, "divergent_buckets", len(buckets),
		"pushed", len(push), "pulled", len(pulled))
}

// fetchDigest asks peer for its digest of owner's keyspace at depth.
func (ae *antiEntropy) fetchDigest(peer, owner, depth int) (*persist.Digest, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	url := fmt.Sprintf("%s/v1/replica/digest?owner=%d&depth=%d", ae.cn.m.URL(peer), owner, depth)
	var wire digestWire
	if err := ae.getJSON(ctx, url, &wire); err != nil {
		return nil, err
	}
	leaves := make([]uint64, len(wire.Leaves))
	for i, h := range wire.Leaves {
		v, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("serve: undecodable digest leaf %q: %w", h, err)
		}
		leaves[i] = v
	}
	return persist.DigestFromLeaves(leaves, wire.Count)
}

// fetchPull streams peer's records of owner's keyspace in the given
// buckets.
func (ae *antiEntropy) fetchPull(peer, owner, depth int, buckets []int) ([]persist.Record, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	bs := make([]string, len(buckets))
	for i, b := range buckets {
		bs[i] = strconv.Itoa(b)
	}
	url := fmt.Sprintf("%s/v1/replica/pull?owner=%d&depth=%d&buckets=%s",
		ae.cn.m.URL(peer), owner, depth, strings.Join(bs, ","))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	ae.authorize(req)
	resp, err := ae.cn.fwd.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: replica pull from shard %d: %s", peer, resp.Status)
	}
	return persist.ReadRecords(resp.Body)
}

func (ae *antiEntropy) getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	ae.authorize(req)
	resp, err := ae.cn.fwd.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (ae *antiEntropy) authorize(req *http.Request) {
	if tok := ae.s.cfg.AdminToken; tok != "" {
		req.Header.Set(api.AdminTokenHeader, tok)
	}
}

// replicaRecordsOwnedBy enumerates every RAM-held record whose base
// key owner (over active) is `owner`, keyed exactly as replica pushes
// key them — so the owner's and the standby's enumerations of one
// keyspace are directly comparable.
func (s *Server) replicaRecordsOwnedBy(owner int, active []int) []persist.Record {
	var out []persist.Record
	if len(active) == 0 {
		return out
	}
	s.forEachCachedRecord(func(rec persist.Record, baseKey string) {
		if cluster.Owner(baseKey, active) == owner {
			out = append(out, rec)
		}
	})
	return out
}

func digestEntriesOf(recs []persist.Record) []persist.DigestEntry {
	entries := make([]persist.DigestEntry, len(recs))
	for i, rec := range recs {
		entries[i] = persist.DigestEntry{Key: rec.Key, CRC: persist.Checksum(rec.Value)}
	}
	return entries
}

// handleReplicaDigest serves this shard's Merkle digest of the records
// it holds for ?owner, at ?depth. The owner itself and its standby call
// this with the same parameters and compare trees.
func (s *Server) handleReplicaDigest(w http.ResponseWriter, r *http.Request) {
	cn := s.cnode()
	if cn == nil {
		writeError(w, http.StatusNotFound, errNoCluster)
		return
	}
	owner, err := strconv.Atoi(r.URL.Query().Get("owner"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad owner: %w", err))
		return
	}
	recs := s.replicaRecordsOwnedBy(owner, cn.m.ActiveIDs())
	depth := persist.DigestDepth(len(recs))
	if v := r.URL.Query().Get("depth"); v != "" {
		d, err := strconv.Atoi(v)
		if err != nil || d < 1 || d > persist.MaxDigestDepth {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: depth must be in [1, %d]", persist.MaxDigestDepth))
			return
		}
		depth = d
	}
	d := persist.BuildDigest(digestEntriesOf(recs), depth)
	leaves := d.Leaves()
	wire := digestWire{
		Owner:  owner,
		Depth:  d.Depth(),
		Count:  d.Count(),
		Root:   strconv.FormatUint(d.Root(), 16),
		Leaves: make([]string, len(leaves)),
	}
	for i, l := range leaves {
		wire.Leaves[i] = strconv.FormatUint(l, 16)
	}
	writeJSON(w, http.StatusOK, wire)
}

// handleReplicaPull streams this shard's records of ?owner's keyspace
// whose digest buckets (at ?depth) are listed in ?buckets — the repair
// counterpart of handleReplicaDigest.
func (s *Server) handleReplicaPull(w http.ResponseWriter, r *http.Request) {
	cn := s.cnode()
	if cn == nil {
		writeError(w, http.StatusNotFound, errNoCluster)
		return
	}
	q := r.URL.Query()
	owner, err := strconv.Atoi(q.Get("owner"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad owner: %w", err))
		return
	}
	depth, err := strconv.Atoi(q.Get("depth"))
	if err != nil || depth < 1 || depth > persist.MaxDigestDepth {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: depth must be in [1, %d]", persist.MaxDigestDepth))
		return
	}
	want := make(map[int]bool)
	for _, f := range strings.Split(q.Get("buckets"), ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		b, err := strconv.Atoi(f)
		if err != nil || b < 0 || b >= 1<<uint(depth) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bucket %q out of range", f))
			return
		}
		want[b] = true
	}
	var out []persist.Record
	for _, rec := range s.replicaRecordsOwnedBy(owner, cn.m.ActiveIDs()) {
		if want[persist.BucketOf(rec.Key, depth)] {
			out = append(out, rec)
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := persist.WriteRecords(w, out); err != nil {
		s.cfg.Logger.Warn("replica pull stream failed", "err", err)
	}
}

// stopAntiEntropy halts the repair worker and waits for it.
func (cn *clusterNode) stopAntiEntropy() {
	if cn.ae != nil {
		cn.ae.stop()
	}
}
