// Durable plan store wiring: warm restart from the tiered disk store.
//
// The daemon's crash safety rests on the pipeline being a pure function of
// the canonicalized request — the same property the LRU key exploits. The
// durable record for a cached plan is therefore the canonical request
// itself (a few hundred bytes), not the plan artifact (megabytes): Recover
// replays the tier's WAL tail and loads each record into the cache as a
// recipe, planning nothing. A recovered key's first use builds its plan
// with the exact code path a live request uses, so it is bit-identical to
// a freshly computed one by construction.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/api"
	"repro/internal/persist"
	"repro/internal/tiered"
)

// storedRequest is the durable encoding of a plan's canonical request:
// exactly the cacheKey fields, with the key's default normalization
// (PlanRequest.CanonicalOptions) applied before writing.
type storedRequest struct {
	Kernel         string  `json:"kernel"`
	Size           int64   `json:"size"`
	Pi             []int64 `json:"pi,omitempty"`
	SearchPi       bool    `json:"search_pi,omitempty"`
	SearchBound    int64   `json:"search_bound,omitempty"`
	MergeFactor    int64   `json:"merge_factor,omitempty"`
	NoAux          bool    `json:"no_aux,omitempty"`
	GroupingChoice int     `json:"grouping_choice,omitempty"`
}

// persistPayload renders the request's canonical planning fields as the
// WAL record value.
func persistPayload(r *api.PlanRequest) []byte {
	bound, merge := r.CanonicalOptions()
	sr := storedRequest{
		Kernel:         r.Kernel,
		Size:           r.Size,
		Pi:             r.Pi,
		SearchPi:       r.SearchPi,
		SearchBound:    bound,
		MergeFactor:    merge,
		NoAux:          r.NoAux,
		GroupingChoice: r.GroupingChoice,
	}
	b, err := json.Marshal(sr)
	if err != nil {
		// storedRequest marshals unconditionally; this is unreachable.
		panic(fmt.Sprintf("serve: persistPayload: %v", err))
	}
	return b
}

// RecoveryStats summarizes a warm start for the startup log line and for
// tests.
type RecoveryStats struct {
	// Enabled reports whether a DiskCacheDir was configured at all.
	Enabled bool
	// WALRecords counts the durable records replayed from the WAL tail.
	WALRecords int
	// Recovered counts records loaded into the cache as recipes; Skipped
	// counts records dropped as undecodable, key-mismatched or invalid
	// under the current limits. Recovery plans nothing, so a record
	// whose plan fails is recovered, and is dropped on its first use.
	Recovered int
	Skipped   int
	// Rejected is the subset of Skipped dropped specifically because the
	// record no longer passes the daemon's admission limits (e.g. a
	// smaller MaxKernelSize than when it was written). Exposed as
	// loopmapd_recovery_rejected_total so a shrunk limit silently
	// discarding state is visible, not inferred.
	Rejected int
	// FrameRecords counts encoded response frames restored straight into
	// the response cache.
	FrameRecords int
	// DroppedTailBytes and TailErr report torn-tail repair (see
	// tiered.Stats); a non-nil TailErr never fails recovery.
	DroppedTailBytes int64
	TailErr          error
	Elapsed          time.Duration
}

// Recover opens the tiered disk store at Config.DiskCacheDir and replays
// only its WAL tail — the records written since the last memtable flush.
// Everything older is already segment-resident and is served (and
// promoted back into RAM) on demand, which is what makes restart cost
// O(tail) instead of O(history). Tail base records enter the plan cache
// as stage-less recipes in replay order, so the most recently used keys
// end up warmest; nothing is planned until a key is used (see loadRecipe).
// Tail frame records go straight into the encoded-response cache. It must
// be called before the handler serves traffic; with no DiskCacheDir it is
// a no-op. Corrupt or stale records are skipped and counted, never fatal
// — only an unusable directory fails recovery, or a ctx already done.
func (s *Server) Recover(ctx context.Context) (RecoveryStats, error) {
	var rs RecoveryStats
	if s.cfg.DiskCacheDir == "" {
		return rs, nil
	}
	if ctx != nil && ctx.Err() != nil {
		return rs, ctx.Err()
	}
	start := time.Now()
	policy, err := persist.ParsePolicy(s.cfg.Fsync)
	if err != nil {
		return rs, err
	}
	tier, tail, err := tiered.Open(tiered.Config{
		Dir:            s.cfg.DiskCacheDir,
		FS:             s.cfg.FS,
		Fsync:          policy,
		BudgetBytes:    s.cfg.DiskCacheBytes,
		CompactTrigger: s.cfg.CompactTrigger,
		MemtableBytes:  s.cfg.DiskMemtableBytes,
		OnDegrade:      s.latchStoreDegraded,
		OnCommit: func(records int) {
			s.metrics.groupCommitSize.observe(float64(records))
		},
	})
	if err != nil {
		return rs, fmt.Errorf("serve: opening disk cache %s: %w", s.cfg.DiskCacheDir, err)
	}
	s.tier = tier
	rs.Enabled = true
	rs.WALRecords = len(tail)
	ts := tier.Stats()
	rs.DroppedTailBytes = ts.DroppedTailBytes
	rs.TailErr = ts.TailErr
	s.startScrubber()

	for _, rec := range tail {
		switch {
		case strings.HasPrefix(rec.Key, repFramePrefix):
			s.resp.put(rec.Key[len(repFramePrefix):], newRespFrame(rec.Value))
			rs.FrameRecords++
		case strings.HasPrefix(rec.Key, repBasePrefix):
			key := rec.Key[len(repBasePrefix):]
			switch _, err := s.loadRecipe(key, rec.Value); {
			case err == nil:
				rs.Recovered++
			case errors.Is(err, errForeignRecord):
				rs.Skipped++
			default:
				rs.Skipped++
				s.noteRecoveryRejected(&rs, key, err)
			}
		default:
			rs.Skipped++
		}
	}
	s.metrics.recoveredPlans.Add(int64(rs.Recovered))
	s.metrics.recoverySkipped.Add(int64(rs.Skipped))
	rs.Elapsed = time.Since(start)
	return rs, nil
}

// errForeignRecord marks a durable base record that does not decode, or
// whose payload encodes another key: a foreign or hand-edited store.
var errForeignRecord = errors.New("serve: durable record does not match its key")

// loadRecipe checks the durable base record for key and inserts it into
// the plan cache as a stage-less recipe: key and payload, charged
// entryBytes. It plans nothing; the key's first use resolves the stage
// and builds the plan under basePlan's singleflight and gate, and drops
// the recipe if that fails. It reports whether key is new to the cache (a
// held key is only promoted), or returns errForeignRecord, or the
// validation error of a record the current admission limits reject.
func (s *Server) loadRecipe(key string, value []byte) (bool, error) {
	// A storedRequest's fields are PlanRequest's, under the same names.
	var req api.PlanRequest
	if err := json.Unmarshal(value, &req); err != nil {
		return false, errForeignRecord
	}
	if req.Key() != key {
		return false, errForeignRecord
	}
	// A record stale under the current limits (e.g. a smaller
	// MaxKernelSize) would admit work the daemon now rejects.
	if err := s.validatePlanRequest(&req); err != nil {
		return false, err
	}
	ev, added := s.cache.put(key, nil, nil, value)
	if ev > 0 {
		s.metrics.cacheEvictions.Add(int64(ev))
	}
	return added, nil
}

// noteRecoveryRejected accounts one durable record dropped because it no
// longer passes the admission limits: a dedicated counter (distinct from
// the catch-all skip count) and one log line per recovery naming the
// first offender — shrinking a limit should discard state loudly.
func (s *Server) noteRecoveryRejected(rs *RecoveryStats, key string, err error) {
	rs.Rejected++
	s.metrics.recoveryRejected.Add(1)
	if rs.Rejected == 1 {
		s.cfg.Logger.Warn("recovery rejecting records invalid under current admission limits",
			"first_key", key, "err", err)
	}
}

// writableStore fails fast when the durable store has latched read-only:
// a cache miss implies a durable write the store cannot take.
func (s *Server) writableStore() error {
	if s.tier != nil && s.storeDegraded.Load() {
		return ErrStoreDegraded
	}
	return nil
}

// latchStoreDegraded flips the daemon into read-only serving, exactly
// once — it is the store's OnDegrade callback and fires on the first
// write/sync/flush/compaction failure. There is deliberately no unlatch:
// after a failed fsync the kernel may already have dropped the dirty
// pages, so only a restart on healthy storage re-earns durability.
func (s *Server) latchStoreDegraded(cause error) {
	if !s.storeDegraded.CompareAndSwap(false, true) {
		return
	}
	s.metrics.storeDegraded.Store(1)
	s.cfg.Logger.Error("durable store degraded: serving read-only", "cause", cause)
}

// persistPlan appends one computed plan's canonical request to the tier.
// A failed append is returned to the caller — the plan must not be
// cached or acked — and has already latched the store read-only: the
// latch is taken here, before the caller answers, rather than left to
// the tier's asynchronous OnDegrade, so a client that saw the failure
// never finds /readyz or the next miss still taking writes. The
// tier manages its own flush/compaction cadence; the wire key carries
// the replication prefix so transfer and ingest stream tier records
// verbatim.
func (s *Server) persistPlan(key string, payload []byte) error {
	if s.tier == nil || payload == nil {
		return nil
	}
	if err := s.tier.Put(repBasePrefix+key, payload); err != nil {
		s.metrics.walErrors.Add(1)
		s.cfg.Logger.Error("tier append failed", "key", key, "err", err)
		if errors.Is(err, persist.ErrDegraded) {
			s.latchStoreDegraded(err)
		}
		return err
	}
	s.metrics.walAppends.Add(1)
	return nil
}

// Close stops the cluster health prober and the scrubber, then closes
// the durable store (each a no-op when the feature is off). In-flight
// HTTP requests are the listener's concern; call this after the listener
// has drained.
func (s *Server) Close() error {
	if cn := s.cnode(); cn != nil {
		cn.stopProbing()
		cn.stopAntiEntropy()
		cn.stopReplication()
	}
	s.stopScrubber()
	if s.tier == nil {
		return nil
	}
	return s.tier.Close()
}
