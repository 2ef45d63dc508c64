package api

import "repro/internal/cluster"

// EpochHeader is the response header carrying the responding shard's
// cluster-map epoch on every cluster-mode response. Clients compare it
// (or the epoch in the embedded cluster metadata) against their shard
// map and refresh on mismatch — membership changes propagate with
// ordinary traffic, not just failovers.
const EpochHeader = "X-Loopmap-Epoch"

// AdminTokenHeader authenticates /v1/admin/* requests (alternative to
// Authorization: Bearer).
const AdminTokenHeader = "X-Loopmap-Admin-Token"

// ReadOnlyHeader ("1" when present) marks a 503 caused by the shard's
// durable store having latched read-only after a disk fault: cached
// reads still serve, but writes requiring durability are refused. The
// cluster-aware client demotes the endpoint for write-ish calls instead
// of retrying it, and a forwarding shard falls back to serving locally.
const ReadOnlyHeader = "X-Loopmap-Read-Only"

// DeadlineHeader carries a request's absolute deadline (unix
// microseconds, UTC) across forwarding hops. The receiving shard clamps
// its working context to it and rejects work whose deadline has already
// passed — a partitioned or slow hop must not burn an owner's compute on
// a response the client stopped waiting for.
const DeadlineHeader = "X-Loopmap-Deadline"

// ClusterInfo is the per-response shard metadata attached to /v1/plan and
// /v1/simulate responses in cluster mode: which shard computed the
// response, which shard should serve the key under the responder's
// membership view, the forwarding hop count, and the responder's
// cluster-map epoch.
type ClusterInfo struct {
	Shard int `json:"shard"`
	Owner int `json:"owner"`
	Hops  int `json:"hops"`
	// Epoch is the responder's cluster-map epoch (0 on daemons predating
	// dynamic membership).
	Epoch uint64 `json:"epoch,omitempty"`
}

// ClusterNodeStats is the responding shard's own serving counters,
// embedded in ClusterStatus so harnesses can assert replication and
// recomputation behavior per shard.
type ClusterNodeStats struct {
	// Computations counts base plans this shard computed for keys it did
	// not hold. Ingesting replicated or transferred records computes
	// nothing: they load as recipes, rebuilt on first use.
	Computations int64 `json:"computations"`
	// ReplicasSent / ReplicasReceived count replica push requests.
	ReplicasSent     int64 `json:"replicas_sent"`
	ReplicasReceived int64 `json:"replicas_received"`
	// ReplicaQueue is the backlog of replica pushes awaiting send — zero
	// means quiesced.
	ReplicaQueue int64 `json:"replica_queue"`
}

// ClusterStatus is the GET /v1/cluster response.
type ClusterStatus struct {
	Self int `json:"self"`
	N    int `json:"n"`
	// Dim is the hypercube dimension — also the forwarding hop budget.
	Dim int `json:"dim"`
	// Epoch is the cluster-map version; Map is the full epoch-versioned
	// roster (states, tombstones, down hints).
	Epoch  uint64               `json:"epoch"`
	Map    cluster.Map          `json:"map"`
	Shards []cluster.PeerStatus `json:"shards"`
	// Stats carries the responding shard's own counters.
	Stats *ClusterNodeStats `json:"stats,omitempty"`
}

// JoinRequest is the POST /v1/admin/join body: a new shard announcing
// the base URL it serves on.
type JoinRequest struct {
	URL string `json:"url"`
}

// JoinResponse assigns the joiner its shard ID and hands over the
// admitting shard's current cluster map (the joiner enters in state
// "joining" and activates itself once caught up).
type JoinResponse struct {
	ID  int         `json:"id"`
	Map cluster.Map `json:"map"`
}

// LeaveRequest is the POST /v1/admin/leave body. ID nil means the
// receiving shard itself.
type LeaveRequest struct {
	ID *int `json:"id,omitempty"`
}

// LeaveResponse returns the bumped map with the departed shard
// tombstoned.
type LeaveResponse struct {
	Map cluster.Map `json:"map"`
}

// TransferRequest is the POST /v1/admin/transfer body: a joining shard
// asking a current member to stream every cached record whose key the
// joiner will own once active. The response body is a persist-framed
// record stream (persist.WriteRecords).
type TransferRequest struct {
	ForShard int `json:"for_shard"`
}

// DrainResponse is the POST /v1/admin/drain acknowledgement.
type DrainResponse struct {
	Draining bool `json:"draining"`
}
