// Dynamic join: how a fresh daemon becomes a shard of a running
// cluster without a restart anywhere else.
//
//  1. POST <seed>/v1/admin/join {url} — the seed assigns an ID, adds the
//     joiner to its map as state "joining" (probed, gossiped, but not an
//     ownership candidate), and returns the bumped map.
//  2. The joiner enables cluster mode from that adopted map.
//  3. It streams its future keyspace from every active shard over
//     POST /v1/admin/transfer — base-plan records and encoded frames,
//     filtered server-side to keys the joiner will own once active —
//     and replays them through the replica ingest path, which loads
//     each base record as a recipe and plans nothing.
//  4. It then flips itself to "up" with an epoch bump. Gossip spreads
//     the new map within one probe interval, and exactly the joiner's
//     HRW keyspace moves — every other key keeps its owner, and the
//     moved keys arrive warm.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/api"
	"repro/internal/cluster"
	"repro/internal/persist"
)

// JoinOptions configures a dynamic cluster join.
type JoinOptions struct {
	// SeedURL is any live cluster member's base URL.
	SeedURL string
	// AdvertiseURL is this daemon's base URL as peers should reach it.
	AdvertiseURL string
	// AdminToken authenticates the join and transfer calls (must match
	// the cluster's -admin-token).
	AdminToken string
	PeerOptions
}

// JoinCluster runs the join protocol. On return the server is an active
// shard of the seed's cluster, its keyspace pre-warmed. Call it after
// New (and Recover) instead of EnableCluster.
func (s *Server) JoinCluster(ctx context.Context, opts JoinOptions) error {
	if s.cnode() != nil {
		return errors.New("serve: cluster already enabled")
	}
	if opts.SeedURL == "" || opts.AdvertiseURL == "" {
		return errors.New("serve: join needs a seed URL and an advertise URL")
	}
	client := &http.Client{Timeout: 30 * time.Second}

	jr, err := s.joinCall(ctx, client, opts, opts.SeedURL)
	if err != nil {
		return fmt.Errorf("serve: joining via %s: %w", opts.SeedURL, err)
	}
	if err := s.enableCluster(ClusterOptions{SelfID: jr.ID, PeerOptions: opts.PeerOptions}, &jr.Map); err != nil {
		return err
	}
	cn := s.cnode()
	s.cfg.Logger.Info("joined cluster map", "self", jr.ID, "epoch", jr.Map.Epoch)

	// Pull the keyspace this shard will own from each current owner.
	// A shard that cannot serve the transfer (down, mid-restart) is
	// skipped: its records replicate over later, and correctness never
	// depended on warmth.
	pulled := 0
	for _, sh := range jr.Map.Shards {
		if sh.ID == jr.ID || sh.State != cluster.StateUp {
			continue
		}
		n, err := s.pullTransfer(ctx, client, opts.AdminToken, sh.URL, jr.ID)
		if err != nil {
			s.cfg.Logger.Warn("keyspace transfer failed; continuing cold", "from", sh.ID, "err", err)
			continue
		}
		pulled += n
	}

	if err := cn.m.Activate(jr.ID); err != nil {
		return fmt.Errorf("serve: activating shard %d: %w", jr.ID, err)
	}
	s.cfg.Logger.Info("shard active", "self", jr.ID, "epoch", cn.m.Epoch(), "records_pulled", pulled)
	return nil
}

// joinCall asks the seed to admit this daemon.
func (s *Server) joinCall(ctx context.Context, client *http.Client, opts JoinOptions, seed string) (*api.JoinResponse, error) {
	body, err := json.Marshal(api.JoinRequest{URL: opts.AdvertiseURL})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, seed+"/v1/admin/join", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if opts.AdminToken != "" {
		req.Header.Set(api.AdminTokenHeader, opts.AdminToken)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("join refused: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var jr api.JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return nil, err
	}
	if jr.Map.Validate() != nil || jr.Map.Find(jr.ID) < 0 {
		return nil, errors.New("join returned an invalid map")
	}
	return &jr, nil
}

// pullTransfer streams one shard's view of this shard's future keyspace
// and ingests it. It returns the number of records applied.
func (s *Server) pullTransfer(ctx context.Context, client *http.Client, token, from string, forShard int) (int, error) {
	body, err := json.Marshal(api.TransferRequest{ForShard: forShard})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, from+"/v1/admin/transfer", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set(api.AdminTokenHeader, token)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("transfer refused: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	recs, err := persist.ReadRecords(resp.Body)
	if err != nil {
		// A torn stream still yielded intact records; use them.
		s.cfg.Logger.Warn("transfer stream ended early", "from", from, "records", len(recs), "err", err)
	}
	return s.ingestRecords(recs), nil
}
