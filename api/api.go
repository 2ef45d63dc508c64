// Package api is loopmapd's stable wire contract: the request and
// response shapes of every endpoint, shared verbatim by the server
// (internal/serve) and the official client (client). The types here are
// plain data — no handler logic — so external tools can depend on them
// without pulling in the serving stack's behavior.
//
// Canonicalization lives here too: PlanRequest.Key and
// PlanRequest.ResponseKey are the exact strings the daemon caches and
// rendezvous-hashes over, so clients, shards, and harnesses all agree on
// ownership byte for byte.
package api

import "strconv"

// PlanRequest is the JSON body of /v1/plan and the planning half of
// /v1/simulate.
type PlanRequest struct {
	Kernel string `json:"kernel"`
	Size   int64  `json:"size"`
	// CubeDim < 0 (or omitted as null) skips the mapping phase. The
	// encoding uses a pointer so "absent" defaults to 3 (the paper's
	// running example) rather than colliding with a meaningful 0.
	CubeDim *int `json:"cube_dim"`
	// Exclusive demands one block per node (fails with 400 when the cube
	// is too small).
	Exclusive bool `json:"exclusive,omitempty"`
	// Pi pins the time function; SearchPi searches exhaustively with
	// SearchBound.
	Pi          []int64 `json:"pi,omitempty"`
	SearchPi    bool    `json:"search_pi,omitempty"`
	SearchBound int64   `json:"search_bound,omitempty"`
	// Partition knobs (Algorithm 1).
	MergeFactor    int64 `json:"merge_factor,omitempty"`
	NoAux          bool  `json:"no_aux,omitempty"`
	GroupingChoice int   `json:"grouping_choice,omitempty"`
	// TimeoutMS bounds this request's total work.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// CubeDimOrDefault resolves the requested cube dimension (default 3).
func (r *PlanRequest) CubeDimOrDefault() int {
	if r.CubeDim == nil {
		return 3
	}
	return *r.CubeDim
}

// Key canonicalizes the planning inputs: defaults are applied first
// (SearchBound 0 → 2, MergeFactor 0 → 1), so every spelling of the same
// computation shares one cache line. The cube dimension is deliberately
// absent — one cached partitioning serves every cube through Plan.Remap.
// Built with strconv, not fmt — this runs on the hot hit path — but the
// string is byte-identical to the historical fmt rendering, so persisted
// records keyed by older daemons replay cleanly.
func (r *PlanRequest) Key() string {
	return string(r.AppendKey(make([]byte, 0, 96)))
}

// CanonicalOptions returns the request's Π-search bound and merge factor
// with the defaults every canonical form applies (the keys and the
// daemon's durable record): the bound is 2 when SearchPi is set without
// a positive one and 0 without SearchPi, and a merge factor below 1 is 1.
func (r *PlanRequest) CanonicalOptions() (searchBound, mergeFactor int64) {
	searchBound, mergeFactor = r.SearchBound, max(r.MergeFactor, 1)
	if !r.SearchPi {
		searchBound = 0
	} else if searchBound <= 0 {
		searchBound = 2
	}
	return searchBound, mergeFactor
}

// AppendKey renders the canonical base key into b — the hit path builds
// the base and encoded keys in one buffer without intermediate strings.
// It is the stage key (AppendStageKey) followed by Algorithm 1's options.
func (r *PlanRequest) AppendKey(b []byte) []byte {
	_, merge := r.CanonicalOptions()
	b = r.AppendStageKey(b)
	b = append(b, "|merge="...)
	b = strconv.AppendInt(b, merge, 10)
	b = append(b, "|noaux="...)
	b = strconv.AppendBool(b, r.NoAux)
	b = append(b, "|choice="...)
	b = strconv.AppendInt(b, int64(r.GroupingChoice), 10)
	return b
}

// AppendStageKey renders the canonical stage key into b: the prefix of
// the base key that fixes enumeration, the schedule and the projection
// (kernel, size and the time-function fields). Requests that differ only
// in Algorithm 1's options share it, and with it one projection.
func (r *PlanRequest) AppendStageKey(b []byte) []byte {
	bound, _ := r.CanonicalOptions()
	b = append(b, "kernel="...)
	b = append(b, r.Kernel...)
	b = append(b, "|size="...)
	b = strconv.AppendInt(b, r.Size, 10)
	b = append(b, "|pi=["...)
	for i, v := range r.Pi {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	b = append(b, "]|search="...)
	b = strconv.AppendBool(b, r.SearchPi)
	b = append(b, "|bound="...)
	b = strconv.AppendInt(b, bound, 10)
	return b
}

// ResponseKey is the canonical key of the request's fully-encoded
// response: the base key plus the mapping knobs the encoding additionally
// depends on.
func (r *PlanRequest) ResponseKey() string {
	return string(r.AppendResponseSuffix(r.AppendKey(make([]byte, 0, 128))))
}

// AppendResponseSuffix appends the mapping knobs to a rendered base key.
func (r *PlanRequest) AppendResponseSuffix(b []byte) []byte {
	b = append(b, "|cube="...)
	b = strconv.AppendInt(b, int64(r.CubeDimOrDefault()), 10)
	b = append(b, "|excl="...)
	b = strconv.AppendBool(b, r.Exclusive)
	return b
}

// CacheOutcome reports how a request's base plan was obtained.
type CacheOutcome string

const (
	// CacheHit: served from the LRU.
	CacheHit CacheOutcome = "hit"
	// CacheMiss: this request computed the plan.
	CacheMiss CacheOutcome = "miss"
	// CacheShared: joined another request's in-flight computation.
	CacheShared CacheOutcome = "shared"
)

// PlanResponse summarizes a plan.
type PlanResponse struct {
	Kernel     string  `json:"kernel"`
	Size       int64   `json:"size"`
	Pi         []int64 `json:"pi"`
	Steps      int64   `json:"steps"`
	Iterations int     `json:"iterations"`

	Blocks       int   `json:"blocks"`
	MaxBlock     int   `json:"max_block"`
	GroupSizeR   int64 `json:"group_size_r"`
	Beta         int   `json:"beta"`
	TIGEdges     int   `json:"tig_edges"`
	TIGTraffic   int64 `json:"tig_traffic"`
	MaxOutDegree int   `json:"max_out_degree"`

	CubeDim     int   `json:"cube_dim"`
	Procs       int   `json:"procs"`
	HopWeight   int64 `json:"hop_weight,omitempty"`
	MaxDilation int   `json:"max_dilation,omitempty"`
	MinLoad     int64 `json:"min_load,omitempty"`
	MaxLoad     int64 `json:"max_load,omitempty"`

	Summary string `json:"summary"`
	// Cache and Cluster are the per-request metadata: absent from the
	// cached frame (the invariant encode leaves them zero) and patched in
	// as a suffix by the server's frame writer. They sit last so the patch
	// is a pure append.
	Cache CacheOutcome `json:"cache,omitempty"`
	// Cluster is the shard metadata (cluster mode only).
	Cluster *ClusterInfo `json:"cluster,omitempty"`
}

// SPMDRequest compiles loop-DSL source to a standalone parallel Go
// program.
type SPMDRequest struct {
	Name      string `json:"name,omitempty"`
	Source    string `json:"source"`
	CubeDim   *int   `json:"cube_dim"`
	Seed      uint64 `json:"seed,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// SPMDResponse carries the generated program.
type SPMDResponse struct {
	Source string `json:"source"`
}

// KernelInfo describes one built-in kernel.
type KernelInfo struct {
	Name string  `json:"name"`
	Dims int     `json:"dims"`
	Deps int     `json:"deps"`
	Pi   []int64 `json:"pi"`
}
