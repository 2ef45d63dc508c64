// Mutating admin operations, consolidated under POST /v1/admin/*:
//
//	join      add a shard to the cluster map (state joining)
//	leave     retire a shard (tombstoned; its keyspace rehashes away)
//	drain     flip this daemon to draining (healthz 503s; LBs back off)
//	transfer  stream one shard's HRW keyspace as framed records
//
// All four are registered only when -admin-token is set, gated by a
// constant-time token check; an unconfigured daemon answers a plain 404,
// so single-daemon wire behavior is byte-identical to before.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/api"
	"repro/internal/cluster"
	"repro/internal/persist"
)

var errForbidden = errors.New("serve: admin token mismatch")

// requireAdmin gates an admin handler behind the configured token.
func (s *Server) requireAdmin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !tokenMatch(r, s.cfg.AdminToken) {
			writeError(w, http.StatusForbidden, errForbidden)
			return
		}
		h(w, r)
	}
}

// handleAdminJoin admits a new shard: it gets an ID (a fresh one, or its
// old one revived if it is rejoining), enters the map as state joining —
// visible and probed, but not yet an ownership candidate — and receives
// the bumped map to bootstrap from.
func (s *Server) handleAdminJoin(w http.ResponseWriter, r *http.Request) {
	cn := s.cnode()
	if cn == nil {
		writeError(w, http.StatusConflict, errors.New("serve: not in cluster mode"))
		return
	}
	var req api.JoinRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, m, err := cn.m.AddShard(req.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.cfg.Logger.Info("shard joining", "id", id, "url", req.URL, "epoch", m.Epoch)
	writeJSON(w, http.StatusOK, api.JoinResponse{ID: id, Map: m})
}

// handleAdminLeave retires a shard (default: this one). The tombstone
// propagates with the map; the departed keyspace rehashes to survivors.
func (s *Server) handleAdminLeave(w http.ResponseWriter, r *http.Request) {
	cn := s.cnode()
	if cn == nil {
		writeError(w, http.StatusConflict, errors.New("serve: not in cluster mode"))
		return
	}
	var req api.LeaveRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id := cn.m.Self()
	if req.ID != nil {
		id = *req.ID
	}
	if err := cn.m.Leave(id); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.cfg.Logger.Info("shard leaving", "id", id, "epoch", cn.m.Epoch())
	writeJSON(w, http.StatusOK, api.LeaveResponse{Map: cn.m.Map()})
}

// handleAdminDrain flips the daemon to draining — works in single-daemon
// mode too (it is the old /healthz drain behavior behind the gate).
func (s *Server) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	s.SetDraining()
	writeJSON(w, http.StatusOK, api.DrainResponse{Draining: true})
}

// handleAdminTransfer streams every locally-held record whose key the
// requesting shard would own once active — base-plan requests and
// encoded frames from RAM and the disk tier, so a joiner receives the
// full keyspace it will own, not just what happens to be warm here — as
// one framed record stream. The joiner replays it through the same
// ingest path a replica push uses.
func (s *Server) handleAdminTransfer(w http.ResponseWriter, r *http.Request) {
	cn := s.cnode()
	if cn == nil {
		writeError(w, http.StatusConflict, errors.New("serve: not in cluster mode"))
		return
	}
	var req api.TransferRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	candidates := cn.m.ActiveIDs()
	if !containsInt(candidates, req.ForShard) {
		candidates = append(candidates, req.ForShard)
	}
	if len(candidates) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: transfer for unknown shard %d", req.ForShard))
		return
	}

	var recs []persist.Record
	s.forEachHeldRecord(func(rec persist.Record, baseKey string) {
		if cluster.Owner(baseKey, candidates) == req.ForShard {
			recs = append(recs, rec)
		}
	})

	w.Header().Set("Content-Type", "application/octet-stream")
	if err := persist.WriteRecords(w, recs); err != nil {
		s.cfg.Logger.Warn("transfer stream aborted", "for_shard", req.ForShard, "err", err)
		return
	}
	s.metrics.transfersServed.Add(1)
	s.cfg.Logger.Info("keyspace transfer served", "for_shard", req.ForShard, "records", len(recs))
}

// frameBaseKey recovers the base-plan key a response key extends (the
// response key is the base key plus "|cube=N|excl=b").
func frameBaseKey(ekey string) string {
	if i := strings.LastIndex(ekey, "|cube="); i >= 0 {
		return ekey[:i]
	}
	return ekey
}
