package api

import "encoding/json"

// SimulateRequest extends PlanRequest with machine and simulation knobs.
type SimulateRequest struct {
	PlanRequest
	// Era selects a parameter preset: "1991" (default), "unit",
	// "balanced" — or set explicit params.
	Era    string   `json:"era,omitempty"`
	TCalc  *float64 `json:"tcalc,omitempty"`
	TStart *float64 `json:"tstart,omitempty"`
	TComm  *float64 `json:"tcomm,omitempty"`
	THop   *float64 `json:"thop,omitempty"`
	// Engine is accepted for compatibility: "", "block" and "point"
	// return identical bytes, since the daemon has one simulator; any
	// other value is rejected.
	Engine     string `json:"engine,omitempty"`
	Aggregate  bool   `json:"aggregate,omitempty"`
	Contention bool   `json:"contention,omitempty"`
	// Sequential adds a single-processor run and the speedup ratio.
	Sequential bool `json:"sequential,omitempty"`
	// Trace embeds a Chrome trace-event timeline of the run.
	Trace bool `json:"trace,omitempty"`
	// Faults injects a deterministic fault schedule into the run
	// (crashes, link failures, message loss with retransmission,
	// checkpointing). Identical requests replay identically.
	Faults *FaultSpec `json:"faults,omitempty"`
	// FailedNodes simulates on a degraded cube: the named nodes are dead
	// before the run starts, their blocks migrate to the nearest healthy
	// survivors, and traffic reroutes over the surviving subcube.
	// Requires a mapped plan (cube_dim ≥ 0).
	FailedNodes []int `json:"failed_nodes,omitempty"`
}

// FaultSpec is the JSON encoding of a fault schedule.
type FaultSpec struct {
	// Seed fixes the loss RNG; equal seeds replay bit-identically.
	Seed uint64 `json:"seed,omitempty"`
	// LossProb is the per-message-attempt loss probability in [0, 1].
	LossProb float64 `json:"loss_prob,omitempty"`
	// Crashes kills nodes at simulated times.
	Crashes []NodeCrashSpec `json:"crashes,omitempty"`
	// LinkFailures degrades links at simulated times (requires a mapped
	// plan, whose routes the failures intersect).
	LinkFailures []LinkFailureSpec `json:"link_failures,omitempty"`
	// MaxAttempts and Backoff tune retransmission (defaults 3 and 1
	// t_start between the first retry pair, doubling per attempt).
	MaxAttempts int     `json:"max_attempts,omitempty"`
	Backoff     float64 `json:"backoff,omitempty"`
	// CheckpointSteps checkpoints every N hyperplane steps at
	// CheckpointCost per dirty processor; RestartCost is the takeover
	// surcharge on a crash.
	CheckpointSteps int     `json:"checkpoint_steps,omitempty"`
	CheckpointCost  float64 `json:"checkpoint_cost,omitempty"`
	RestartCost     float64 `json:"restart_cost,omitempty"`
}

// NodeCrashSpec is one node failure at a simulated time.
type NodeCrashSpec struct {
	Node int     `json:"node"`
	T    float64 `json:"t"`
}

// LinkFailureSpec is one link failure at a simulated time.
type LinkFailureSpec struct {
	A int     `json:"a"`
	B int     `json:"b"`
	T float64 `json:"t"`
}

// SimulateResponse reports the simulation accounting.
type SimulateResponse struct {
	Makespan     float64 `json:"makespan"`
	Messages     int64   `json:"messages"`
	Words        int64   `json:"words"`
	MaxProcOps   int64   `json:"max_proc_ops"`
	CriticalProc int     `json:"critical_proc"`
	Procs        int     `json:"procs"`

	SequentialMakespan float64 `json:"sequential_makespan,omitempty"`
	Speedup            float64 `json:"speedup,omitempty"`

	// Fault accounting, present only when a fault schedule ran.
	Crashes        int     `json:"crashes,omitempty"`
	Retransmits    int64   `json:"retransmits,omitempty"`
	CheckpointTime float64 `json:"checkpoint_time,omitempty"`
	ReplayTime     float64 `json:"replay_time,omitempty"`
	// Degraded reports the pre-run remap a failed_nodes request forced.
	Degraded *DegradedInfo `json:"degraded,omitempty"`

	Cache CacheOutcome    `json:"cache"`
	Trace json.RawMessage `json:"trace,omitempty"`
	// Cluster is the shard metadata (cluster mode only).
	Cluster *ClusterInfo `json:"cluster,omitempty"`
}

// DegradedInfo summarizes a degraded-cube remap.
type DegradedInfo struct {
	FailedNodes      []int `json:"failed_nodes"`
	MigratedBlocks   int   `json:"migrated_blocks"`
	MaxMigrationHops int   `json:"max_migration_hops"`
	// ExtraHopWords can be negative: consolidating a dead node's blocks
	// onto a neighbour makes their mutual edges local.
	ExtraHopWords int64 `json:"extra_hop_words"`
	// MakespanInflation is degraded/intact makespan under the reference
	// era-1991 parameters.
	MakespanInflation float64 `json:"makespan_inflation"`
}
