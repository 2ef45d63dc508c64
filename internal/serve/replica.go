// Asynchronous replication: every durable plan a primary computes is
// pushed to its Gray-ring standby, so a SIGKILLed shard's keyspace is
// already warm on its neighbor (hinted handoff) and a failover serves
// with zero recomputations.
//
// Two record kinds travel over POST /v1/replica, both as persist-framed
// streams (the WAL wire format):
//
//	b|<base key>     the canonical storedRequest JSON — the same bytes
//	                 the WAL holds. The receiver loads it into its plan
//	                 cache as a stage-less recipe, planning nothing until
//	                 the key is used, and persists it locally; a
//	                 standby's copy survives its own restarts.
//	f|<response key> the fully-encoded response frame bytes. The
//	                 receiver inserts them straight into the encoded-
//	                 response cache — a failover hit is zero-copy too.
//
// Pushes are fire-and-forget off the request path: a bounded queue and
// one worker per node, drops counted when the queue is full (the record
// is still durable on the primary; the standby converges on the next
// compute or transfer). Only the HRW primary for a key replicates it —
// a standby serving a replicated key never re-pushes, so there is no
// replication chain.
package serve

import (
	"bytes"
	"context"
	"crypto/subtle"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/cluster"
	"repro/internal/persist"
)

// Replica record-key prefixes: base-plan requests and encoded frames.
const (
	repBasePrefix  = "b|"
	repFramePrefix = "f|"
)

// replicaQueueCap bounds the push queue; a full queue drops the newest
// record rather than stalling the serving path.
const replicaQueueCap = 4096

// pushItem is one record bound for a standby.
type pushItem struct {
	target int
	rec    persist.Record
}

// replicator runs the push worker for one cluster node.
type replicator struct {
	s  *Server
	cn *clusterNode

	pushCh chan pushItem

	// pending counts queued-but-unsent records; a zero depth after
	// traffic quiesces means every replica has landed.
	pending atomic.Int64

	// dropLogAt rate-limits the queue-overflow warning to one line per
	// second (unix nanos of the last emitted line).
	dropLogAt atomic.Int64

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

func newReplicator(s *Server, cn *clusterNode) *replicator {
	r := &replicator{
		s:      s,
		cn:     cn,
		pushCh: make(chan pushItem, replicaQueueCap),
		stopCh: make(chan struct{}),
	}
	r.wg.Add(2)
	go r.pushLoop()
	go r.epochWatch()
	return r
}

func (r *replicator) stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.wg.Wait()
}

func (r *replicator) queueDepth() int64 { return r.pending.Load() }

// enqueuePush queues one record toward a standby, dropping on overflow.
func (r *replicator) enqueuePush(target int, rec persist.Record) {
	r.pending.Add(1)
	select {
	case r.pushCh <- pushItem{target: target, rec: rec}:
	default:
		r.pending.Add(-1)
		r.noteDrop(rec.Key)
	}
}

// noteDrop meters one overflow drop: counter always, a warning at most
// once per second (an overloaded queue drops thousands of records — one
// line carries the signal, the counter carries the magnitude), and an
// anti-entropy kick so repair starts as soon as the pressure that caused
// the drop subsides, instead of waiting out the periodic interval.
func (r *replicator) noteDrop(key string) {
	r.s.metrics.replicaDrops.Add(1)
	now := time.Now().UnixNano()
	if last := r.dropLogAt.Load(); now-last >= int64(time.Second) && r.dropLogAt.CompareAndSwap(last, now) {
		r.s.cfg.Logger.Warn("replica queue overflow; dropping records",
			"key", key, "drops_total", r.s.metrics.replicaDrops.Load())
	}
	if r.cn.ae != nil {
		r.cn.ae.requestKick()
	}
}

// pushLoop drains the push queue, coalescing consecutive records for the
// same standby into one framed POST.
func (r *replicator) pushLoop() {
	defer r.wg.Done()
	for {
		var first pushItem
		select {
		case <-r.stopCh:
			return
		case first = <-r.pushCh:
		}
		batch := []persist.Record{first.rec}
	drain:
		for len(batch) < 64 {
			select {
			case it := <-r.pushCh:
				if it.target != first.target {
					// Different standby: ship what we have and requeue.
					r.push(first.target, batch)
					r.pending.Add(int64(-len(batch)))
					first, batch = it, []persist.Record{it.rec}
					continue drain
				}
				batch = append(batch, it.rec)
			default:
				break drain
			}
		}
		r.push(first.target, batch)
		r.pending.Add(int64(-len(batch)))
	}
}

// push ships one framed batch to a standby. Failures are counted, never
// retried here: the record is durable on the primary, and the standby
// converges via the next compute or a bulk transfer.
func (r *replicator) push(target int, recs []persist.Record) {
	url := r.cn.m.URL(target)
	if url == "" {
		r.s.metrics.replicaErrors.Add(1)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	if err := persist.WriteRecords(buf, recs); err != nil {
		r.s.metrics.replicaErrors.Add(1)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/replica", bytes.NewReader(buf.Bytes()))
	if err != nil {
		r.s.metrics.replicaErrors.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if tok := r.s.cfg.AdminToken; tok != "" {
		req.Header.Set(api.AdminTokenHeader, tok)
	}
	// Pushes ride the node's forward client so a test fabric (or any
	// injected transport) sees replication traffic too.
	resp, err := r.cn.fwd.Do(req)
	if err != nil {
		r.s.metrics.replicaErrors.Add(1)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		r.s.metrics.replicaErrors.Add(1)
		return
	}
	r.s.metrics.replicasSent.Add(int64(len(recs)))
}

// epochWatch re-replicates this shard's keyspace whenever the cluster
// map changes. A membership change (join, leave) can reassign a key's
// Gray-ring standby, so records pushed under the old topology may sit on
// a node that is no longer the failover target; one sweep per epoch bump
// restores the invariant that every owned record is warm on its current
// standby. Receivers skip records they already hold, so a redundant
// sweep costs one coalesced push.
func (r *replicator) epochWatch() {
	defer r.wg.Done()
	last := r.cn.m.Epoch()
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-t.C:
			if e := r.cn.m.Epoch(); e != last {
				last = e
				r.sweepOwned()
			}
		}
	}
}

// sweepOwned enqueues a replica push for every record this shard holds
// and currently owns (see forEachHeldRecord).
func (r *replicator) sweepOwned() {
	pushed := 0
	r.s.forEachHeldRecord(func(rec persist.Record, baseKey string) {
		if target, ok := r.s.replicaTargetFor(baseKey); ok {
			r.enqueuePush(target, rec)
			pushed++
		}
	})
	if pushed > 0 {
		r.s.cfg.Logger.Info("re-replicated keyspace after map change",
			"epoch", r.cn.m.Epoch(), "records", pushed)
	}
}

// replicateBase pushes one computed base plan's durable record to the
// key's Gray-ring standby. Only the HRW primary pushes; everyone else
// (standbys serving replicated keys, non-owners serving under a stale
// map) stays quiet.
func (s *Server) replicateBase(key string, payload []byte) {
	cn := s.cnode()
	if cn == nil || payload == nil {
		return
	}
	target, ok := s.replicaTargetFor(key)
	if !ok {
		return
	}
	cn.rep.enqueuePush(target, persist.Record{Key: repBasePrefix + key, Value: payload})
}

// replicateFrame pushes one freshly-encoded response frame to the base
// key's standby, so a failover serves the zero-copy path too.
func (s *Server) replicateFrame(req *api.PlanRequest, ekey string, f *respFrame) {
	cn := s.cnode()
	if cn == nil {
		return
	}
	target, ok := s.replicaTargetFor(req.Key())
	if !ok {
		return
	}
	cn.rep.enqueuePush(target, persist.Record{Key: repFramePrefix + ekey, Value: f.encoded()})
}

// replicaTargetFor returns the standby to push key's records to, and
// whether this node should push at all (it is the key's HRW primary and
// a distinct standby exists).
func (s *Server) replicaTargetFor(key string) (int, bool) {
	m := s.cnode().m
	active := m.ActiveIDs()
	self := m.Self()
	if len(active) < 2 || cluster.Owner(key, active) != self {
		return -1, false
	}
	target := cluster.ReplicaFor(key, active)
	if target < 0 || target == self {
		return -1, false
	}
	return target, true
}

// handleReplica ingests a framed record stream pushed by a primary (or
// streamed from a bulk transfer during join).
func (s *Server) handleReplica(w http.ResponseWriter, r *http.Request) {
	recs, err := persist.ReadRecords(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.replicasReceived.Add(int64(len(recs)))
	s.ingestRecords(recs)
	w.WriteHeader(http.StatusNoContent)
}

// ingestRecords applies replica records locally: frames go straight into
// the encoded-response cache, base requests into the plan cache as
// stage-less recipes (see loadRecipe); a base record for a key the cache
// already holds only promotes it and is not applied. Applied records of
// both kinds write through to the disk tier when one is attached —
// replica records share the tier's wire-key format, so a standby's copy
// is durable the moment it lands. It returns the number of records
// applied.
func (s *Server) ingestRecords(recs []persist.Record) int {
	applied := 0
	for _, rec := range recs {
		switch {
		case strings.HasPrefix(rec.Key, repFramePrefix):
			s.resp.put(rec.Key[len(repFramePrefix):], newRespFrame(rec.Value))
		case strings.HasPrefix(rec.Key, repBasePrefix):
			if added, err := s.loadRecipe(rec.Key[len(repBasePrefix):], rec.Value); err != nil || !added {
				continue
			}
		default:
			continue
		}
		s.tierIngest(rec)
		applied++
	}
	return applied
}

// tierIngest writes one validated replica record through to the disk
// tier, skipping records already durable there (a redundant sweep or
// transfer must not bloat the WAL). Failures latch degraded inside the
// tier; ingest itself stays best-effort.
func (s *Server) tierIngest(rec persist.Record) {
	if s.tier == nil {
		return
	}
	if _, ok, _ := s.tier.Get(rec.Key); ok {
		return
	}
	_ = s.tier.Put(rec.Key, rec.Value)
}

// forEachCachedRecord visits every record the RAM caches hold — base
// plans from the plan cache, then encoded frames from the response cache,
// each least-recently-used first — keyed as replica pushes key them, with
// the base-plan key its ownership hashes by.
func (s *Server) forEachCachedRecord(fn func(rec persist.Record, baseKey string)) {
	for _, rec := range s.cache.records() {
		fn(persist.Record{Key: repBasePrefix + rec.Key, Value: rec.Value}, rec.Key)
	}
	for _, rec := range s.resp.records() {
		fn(persist.Record{Key: repFramePrefix + rec.Key, Value: rec.Value}, frameBaseKey(rec.Key))
	}
}

// forEachHeldRecord is forEachCachedRecord followed by every disk-tier
// record the RAM caches do not hold (they were visited first and are
// newer). Transfer and epoch sweeps use it to stream keys the RAM tier
// has long evicted.
func (s *Server) forEachHeldRecord(fn func(rec persist.Record, baseKey string)) {
	seen := make(map[string]bool)
	s.forEachCachedRecord(func(rec persist.Record, baseKey string) {
		seen[rec.Key] = true
		fn(rec, baseKey)
	})
	if s.tier == nil {
		return
	}
	_ = s.tier.ForEach(func(key string, value []byte) error {
		if seen[key] {
			return nil
		}
		base := key
		switch {
		case strings.HasPrefix(key, repFramePrefix):
			base = frameBaseKey(key[len(repFramePrefix):])
		case strings.HasPrefix(key, repBasePrefix):
			base = key[len(repBasePrefix):]
		}
		fn(persist.Record{Key: key, Value: value}, base)
		return nil
	})
}

// requireInternal gates node-to-node endpoints: when an admin token is
// configured every peer push must carry it; without one the cluster is
// trusted (the single-daemon-compatible default).
func (s *Server) requireInternal(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if tok := s.cfg.AdminToken; tok != "" && !tokenMatch(r, tok) {
			writeError(w, http.StatusForbidden, errForbidden)
			return
		}
		h(w, r)
	}
}

// tokenMatch checks the admin token in constant time, accepting either
// the dedicated header or an Authorization bearer.
func tokenMatch(r *http.Request, want string) bool {
	got := r.Header.Get(api.AdminTokenHeader)
	if got == "" {
		got = strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	}
	return subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}

// stopReplication halts the replication workers and waits for them.
func (cn *clusterNode) stopReplication() {
	if cn.rep != nil {
		cn.rep.stop()
	}
}
