// Package serve implements loopmapd, the concurrent plan-serving daemon:
// an HTTP/JSON front-end over the Sheu–Tai pipeline that plans, simulates,
// and code-generates on demand.
//
// The pipeline is a pure function of (kernel, size, Π, partition options),
// which makes its artifacts ideal for content-addressed caching: requests
// are canonicalized into a cache key over exactly those inputs, each key's
// recipe and the Π-stages (enumeration, schedule, projection) its plans
// are built on are held in a byte-budgeted LRU, every use builds its base
// plan (partitioning + TIG) from the cached stage and maps it onto its
// own cube dimension, and encoded responses are cached apart (see
// encoded.go). A thundering herd of identical requests collapses to one
// computation through singleflight deduplication, and a bounded admission
// gate (internal/pool.Gate) caps concurrent planning work. Request
// deadlines propagate through context into the enumeration, partitioning
// sweep, and simulation event loop; /metrics, /healthz, and /readyz expose
// runtime health.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	loopmap "repro"
	"repro/api"
	"repro/internal/machine"
	"repro/internal/persist"
	"repro/internal/pool"
	"repro/internal/tiered"
	"repro/internal/trace"
)

// Limits no deployment varies.
const (
	// maxCubeDim caps the hypercube dimension a request may ask for.
	maxCubeDim = 10
	// maxBodyBytes caps a request body.
	maxBodyBytes = 1 << 20
	// maxSourceBytes caps inline DSL source.
	maxSourceBytes = 64 << 10
	// acquireTimeout bounds how long a request queues for an admission
	// slot before the daemon sheds it with 503 + Retry-After. Shedding
	// beats queueing when the gate is saturated: the client learns to
	// back off while its deadline still has budget.
	acquireTimeout = time.Second
)

// Config tunes the daemon. The zero value gets production-ish defaults.
type Config struct {
	// CacheBytes is the plan cache budget (default 64 MiB).
	CacheBytes int64
	// MaxInflight bounds concurrent plan computations (default
	// pool.Workers()).
	MaxInflight int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 30s); MaxTimeout clamps what a request may ask for
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxKernelSize caps the size parameter of built-in kernels (default
	// 128).
	MaxKernelSize int64
	// DiskCacheDir enables the durable plan store (internal/tiered): every
	// computed plan's canonical request and encoded response frame is
	// appended to its WAL and demotes to indexed SSTable segments, reads
	// that miss RAM promote back from disk without recomputing, and
	// Recover warm-starts from the WAL tail instead of the whole history.
	// Empty disables persistence.
	DiskCacheDir string
	// DiskCacheBytes caps the tier's total segment bytes; compaction
	// evicts oldest-generation segments past it (0 = unbounded).
	DiskCacheBytes int64
	// CompactTrigger is how many L0 segments accumulate before the tier
	// starts a background compaction (0 = the tier's default, 4).
	CompactTrigger int
	// DiskMemtableBytes overrides the tier's memtable flush threshold
	// (0 = the tier's default, 4 MiB). Benchmarks and harnesses shrink it
	// so segment churn shows up at small keyspace scales.
	DiskMemtableBytes int64
	// Fsync is the WAL durability policy: "always", "interval" (default,
	// a background fsync every 100ms), or "never". Under "always",
	// concurrent writes share one write+fsync.
	Fsync string
	// FS overrides the filesystem the durable store runs on (nil = the
	// real one). Tests, TestScenario/diskchaos among them, inject the
	// fault-injecting implementation here; production leaves it unset.
	FS persist.FS
	// ScrubInterval paces the background scrubber that re-verifies the
	// durable store's checksums at rest (default 1m, negative disables);
	// ScrubRate throttles one pass's read bandwidth in bytes/sec (default
	// 8 MiB/s for any value ≤ 0). No effect without DiskCacheDir.
	ScrubInterval time.Duration
	ScrubRate     int64
	// RespCacheBytes is the encoded-response cache budget (default
	// 16 MiB for any value ≤ 0). Fully-encoded /v1/plan responses are
	// cached here so a hit is a single buffer write.
	RespCacheBytes int64
	// MaxBatchItems caps the items one /v1/batch request may carry
	// (default 256).
	MaxBatchItems int
	// AdminToken gates the mutating /v1/admin/* endpoints (join, leave,
	// drain, transfer). Empty leaves them unregistered — the mux answers
	// a plain 404, byte-compatible with daemons predating the admin API.
	AdminToken string
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = pool.Workers()
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxKernelSize <= 0 {
		c.MaxKernelSize = 128
	}
	if c.ScrubInterval == 0 {
		c.ScrubInterval = time.Minute
	}
	if c.ScrubRate <= 0 {
		c.ScrubRate = 8 << 20
	}
	if c.RespCacheBytes <= 0 {
		c.RespCacheBytes = 16 << 20
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return c
}

// discardHandler is the default log handler: never enabled, so a record
// is neither built nor formatted. (slog.DiscardHandler needs Go 1.24.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// endpoints instrumented individually in /metrics.
var endpointNames = []string{
	"/v1/plan", "/v1/simulate", "/v1/spmd", "/v1/kernels", "/v1/batch",
	"/v1/cluster", "/v1/replica", "/v1/replica/digest", "/v1/replica/pull",
	"/v1/admin/join", "/v1/admin/leave",
	"/v1/admin/drain", "/v1/admin/transfer", "/healthz", "/readyz", "/metrics",
}

// Server is the daemon's handler set and shared state.
type Server struct {
	cfg    Config
	cache  *planCache
	resp   *respCache // encoded /v1/plan responses
	flight flightGroup
	// stageFlight deduplicates Π-stage builds by stage key (see
	// stageFor), apart from flight's base keys.
	stageFlight flightGroup
	// beforeStageBuild, a test seam, runs in stageFlight's leader just
	// before it builds the stage for the given key.
	beforeStageBuild func(skey string)
	// beforeBuild, a test seam, runs in flight's leader before it takes
	// an admission slot to build the key's plan; afterJoin runs in each
	// follower once the flight it joined has ended.
	beforeBuild, afterJoin func(key string)
	// beforeUse, a test seam, runs in usePlan once it has the request's
	// plan, just before use runs on it.
	beforeUse func(key string)

	gate    *pool.Gate
	metrics *metrics
	drain   chan struct{} // closed when draining
	mux     *http.ServeMux

	// tier is the durable plan store, attached by Recover when
	// DiskCacheDir is set (nil when persistence is disabled). It must be
	// attached before the handler serves traffic. It holds the same wire
	// records replication uses — b|<key> canonical requests and f|<key>
	// encoded frames — so RAM misses promote from disk instead of
	// recomputing.
	tier *tiered.Store

	// storeDegraded latches true (exactly once, never back) when the
	// durable store hits a write/sync fault and goes read-only: cached
	// reads keep serving, writes that require durability answer 503 +
	// Retry-After + api.ReadOnlyHeader until an operator restarts the
	// shard on healthy storage.
	storeDegraded atomic.Bool
	scrub         *scrubber

	// clusterPtr is the sharded-serving state, attached by EnableCluster
	// (nil in single-daemon mode). Atomic because a dynamic join attaches
	// it while the daemon is already serving probes and admin calls.
	clusterPtr atomic.Pointer[clusterNode]
}

// cnode returns the cluster state (nil in single-daemon mode).
func (s *Server) cnode() *clusterNode { return s.clusterPtr.Load() }

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newPlanCache(cfg.CacheBytes),
		resp:    newRespCache(cfg.RespCacheBytes),
		gate:    pool.NewGate(cfg.MaxInflight),
		metrics: newMetrics(endpointNames),
		drain:   make(chan struct{}),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/plan", s.instrument("/v1/plan", s.handlePlan))
	s.mux.HandleFunc("POST /v1/simulate", s.instrument("/v1/simulate", s.handleSimulate))
	s.mux.HandleFunc("POST /v1/batch", s.instrument("/v1/batch", s.handleBatch))
	s.mux.HandleFunc("POST /v1/spmd", s.instrument("/v1/spmd", s.handleSPMD))
	s.mux.HandleFunc("GET /v1/kernels", s.instrument("/v1/kernels", s.handleKernels))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	if cfg.AdminToken != "" {
		s.mux.HandleFunc("POST /v1/admin/join", s.instrument("/v1/admin/join", s.requireAdmin(s.handleAdminJoin)))
		s.mux.HandleFunc("POST /v1/admin/leave", s.instrument("/v1/admin/leave", s.requireAdmin(s.handleAdminLeave)))
		s.mux.HandleFunc("POST /v1/admin/drain", s.instrument("/v1/admin/drain", s.requireAdmin(s.handleAdminDrain)))
		s.mux.HandleFunc("POST /v1/admin/transfer", s.instrument("/v1/admin/transfer", s.requireAdmin(s.handleAdminTransfer)))
	}
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetDraining flips /readyz to 503 so load balancers stop routing new
// traffic while in-flight requests finish.
func (s *Server) SetDraining() {
	select {
	case <-s.drain:
	default:
		close(s.drain)
	}
}

func (s *Server) draining() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// buildModule is the main module path stamped into loopmapd_build_info.
var buildModule = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Path != "" {
		return bi.Main.Path
	}
	return "unknown"
}()

// Metrics returns a point-in-time snapshot of every instrument (tests
// assert on it; /metrics renders it).
func (s *Server) Metrics() Snapshot {
	snap := s.metrics.snapshot()
	b, n := s.cache.stats()
	snap.CacheBytes, snap.CacheEntries = b, int64(n)
	rb, rn := s.resp.stats()
	snap.RespCacheBytes, snap.RespCacheCount = rb, int64(rn)
	snap.InflightPlans = int64(s.gate.InFlight())
	if s.tier != nil {
		ts := s.tier.Stats()
		snap.TieredDiskHits = ts.DiskHits
		snap.TieredDiskMisses = ts.DiskMisses
		snap.TieredBloomNegatives = ts.BloomNegatives
		snap.TieredFlushes = ts.Flushes
		snap.TieredCompactions = ts.Compactions
		snap.TieredEvictions = ts.Evictions
		snap.TieredCorruptions = ts.Corruptions
		snap.TieredQuarantined = ts.Quarantined
		snap.TieredSegments = ts.Segments
		snap.TieredBytes = ts.Bytes
		snap.TieredKeys = ts.Keys
		snap.WALBytes = ts.WALBytes
	}

	snap.Goroutines = runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.HeapAllocBytes = int64(ms.HeapAlloc)
	snap.HeapSysBytes = int64(ms.HeapSys)
	snap.GCPauseTotalSeconds = float64(ms.PauseTotalNs) / 1e9
	snap.GCRuns = int64(ms.NumGC)
	snap.GoVersion = runtime.Version()
	snap.Module = buildModule

	if cn := s.cnode(); cn != nil {
		snap.ClusterSelf = cn.m.Self()
		snap.ClusterN = cn.m.N()
		snap.ClusterDim = cn.m.Dim()
		for _, p := range cn.m.Snapshot() {
			snap.ClusterPeers = append(snap.ClusterPeers, PeerHealth{
				ID: p.ID, Alive: p.Alive, ConsecutiveFails: p.ConsecutiveFails,
			})
		}
	}
	return snap
}

// --- request plumbing ---

// statusWriter records the response code and byte count for logging and
// metrics, and whether anything was written — the panic middleware can
// only substitute a 500 while the response is still untouched.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
	bytes int64
}

// statusWriters recycles instrument's writers, keeping up to 16: a
// handler never keeps its writer past its return.
var statusWriters = pool.NewFree[statusWriter](16)

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// instrument wraps a handler with body limits, panic recovery,
// latency/status metrics, and structured request logging. A panicking
// handler yields a 500 (when the response is still unwritten), bumps
// loopmapd_panics_total, and leaves the server serving.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// A declared length within the limit bounds the body already: the
		// server reads no byte past it.
		if r.Body != nil && (r.ContentLength < 0 || r.ContentLength > maxBodyBytes) {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		sw := statusWriters.Get()
		*sw = statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			*sw = statusWriter{}
			statusWriters.Put(sw)
		}()
		if cn := s.cnode(); cn != nil {
			// Epoch gossip over ordinary traffic: every cluster-mode
			// response advertises the responder's map version so clients
			// detect membership changes without a failover.
			sw.Header().Set(api.EpochHeader, strconv.FormatUint(cn.m.Epoch(), 10))
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					s.metrics.panics.Add(1)
					s.cfg.Logger.Error("panic recovered",
						"path", r.URL.Path, "panic", fmt.Sprint(rec))
					if !sw.wrote {
						writeError(sw, http.StatusInternalServerError,
							fmt.Errorf("serve: internal error"))
					} else {
						sw.code = http.StatusInternalServerError
					}
				}
			}()
			h(sw, r)
		}()
		elapsed := time.Since(start)
		s.metrics.observe(endpoint, sw.code, elapsed.Seconds())
		s.metrics.bytesServed.Add(sw.bytes)
		// Checked first so a discarded log boxes no attributes.
		if s.cfg.Logger.Enabled(r.Context(), slog.LevelInfo) {
			s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.code),
				slog.Float64("dur_ms", float64(elapsed.Microseconds())/1000),
				slog.String("remote", r.RemoteAddr),
			)
		}
	}
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// writeJSON encodes v into a pooled buffer and ships it in one Write —
// no per-response encoder garbage, no partial writes interleaved with
// header state.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

// ErrOverloaded marks admission-gate saturation: the caller should back
// off and retry after the Retry-After hint.
var ErrOverloaded = errors.New("serve: overloaded, try again later")

// ErrStoreDegraded marks a write refused because the durable store has
// latched read-only after a disk fault. Cached reads still serve.
var ErrStoreDegraded = errors.New("serve: durable store degraded, writes disabled")

// retryAfterSeconds is the backoff hint attached to every 503.
const retryAfterSeconds = 1

// readOnlyErr reports whether err means "this shard's store is
// read-only" — either the serve-level sentinel or the store's own latch
// error surfacing through a persist call.
func readOnlyErr(err error) bool {
	return errors.Is(err, ErrStoreDegraded) || errors.Is(err, persist.ErrDegraded)
}

func writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
		if readOnlyErr(err) {
			w.Header().Set(api.ReadOnlyHeader, "1")
		}
	}
	writeJSON(w, code, apiError{Error: err.Error(), Code: code})
}

// errStatus maps a pipeline failure to an HTTP status using the typed
// sentinels — no string matching.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case readOnlyErr(err):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, loopmap.ErrUnknownKernel),
		errors.Is(err, loopmap.ErrNoSchedule),
		errors.Is(err, loopmap.ErrCubeTooSmall),
		errors.Is(err, loopmap.ErrBadSimOptions),
		errors.Is(err, loopmap.ErrBadFaultSchedule),
		errors.Is(err, loopmap.ErrDegraded),
		errors.Is(err, loopmap.ErrTooLarge),
		errors.Is(err, loopmap.ErrGroupingChoice):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// --- the plan request and its canonical cache key ---

// The canonical cache key itself (PlanRequest.Key / AppendKey) lives in
// the api package alongside the request type, so clients and shards
// canonicalize byte-identically.

// validate applies the daemon's admission limits and option validation.
func (s *Server) validatePlanRequest(r *api.PlanRequest) error {
	if r.Kernel == "" {
		return errors.New("serve: missing kernel name")
	}
	if r.Size < 1 || r.Size > s.cfg.MaxKernelSize {
		return fmt.Errorf("serve: size %d out of range [1, %d]", r.Size, s.cfg.MaxKernelSize)
	}
	if d := r.CubeDimOrDefault(); d > maxCubeDim {
		return fmt.Errorf("serve: cube_dim %d exceeds the maximum %d", d, maxCubeDim)
	}
	return planOptions(r).Validate()
}

// planOptions converts the request's planning fields (cube dimension
// excluded — base plans are cached unmapped).
func planOptions(r *api.PlanRequest) loopmap.PlanOptions {
	var pi loopmap.IntVec
	if len(r.Pi) > 0 {
		pi = loopmap.Vec(r.Pi...)
	}
	return loopmap.PlanOptions{
		Pi:          pi,
		SearchPi:    r.SearchPi,
		SearchBound: r.SearchBound,
		CubeDim:     -1,
		Partition: loopmap.PartitionOptions{
			MergeFactor:    r.MergeFactor,
			NoAux:          r.NoAux,
			GroupingChoice: r.GroupingChoice,
		},
	}
}

// timeoutFor clamps a request's requested timeout to the server's
// configured bounds.
func (s *Server) timeoutFor(timeoutMS int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// requestContext derives the request's working context from its deadline
// fields, clamped to any deadline a forwarding hop propagated — the
// owner of a forwarded request works against the client's remaining
// budget, not a fresh local timeout.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.timeoutFor(timeoutMS)
	if pd, ok := propagatedDeadline(r); ok && pd.Before(time.Now().Add(d)) {
		return context.WithDeadline(r.Context(), pd)
	}
	return context.WithTimeout(r.Context(), d)
}

// acquire admits the request through the gate, but queues for at most
// acquireTimeout: a saturated gate sheds load with ErrOverloaded (503 +
// Retry-After) instead of holding the connection until its deadline.
func (s *Server) acquire(ctx context.Context) error {
	if s.gate.TryAcquire() {
		return nil
	}
	actx, cancel := context.WithTimeout(ctx, acquireTimeout)
	defer cancel()
	if err := s.gate.Acquire(actx); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr // the request itself died while queued
		}
		return fmt.Errorf("%w: %d/%d admission slots busy",
			ErrOverloaded, s.gate.InFlight(), s.gate.Cap())
	}
	return nil
}

// basePlan returns the base (unmapped) plan for the request, built under
// a singleflight keyed by the base key and the admission gate. The plan
// cache holds recipes, never plans, so every use builds its plan (see
// buildBase). A key the cache holds (used before, or loaded from a
// durable record) is answered as a hit to every request that shared its
// build.
//
// The leader computes under its own request context: followers share the
// leader's result AND its fate — if the leader's deadline fires first, the
// followers see its cancellation error and may retry. This is the standard
// singleflight trade; the alternative (detached computation) would let an
// abandoned request burn a gate slot with nobody waiting.
//
// The plan is built in recycled memory (Stage.PlanTransientCtx). alone
// reports that no other request shares it: the caller ran the flight and
// no follower joined it, so it may Release the plan once done with it
// (see usePlan).
func (s *Server) basePlan(ctx context.Context, req *api.PlanRequest) (p *loopmap.Plan, outcome api.CacheOutcome, alone bool, err error) {
	key := req.Key()
	v, err, shared, joined := s.flight.do(ctx, key, func() (any, error) {
		return s.buildBase(ctx, req, key)
	})
	if err != nil {
		return nil, api.CacheMiss, false, err
	}
	if shared && s.afterJoin != nil {
		s.afterJoin(key)
	}
	fp := v.(flightPlan)
	outcome = api.CacheMiss
	switch {
	case fp.held:
		if shared {
			s.metrics.cacheHits.Add(1)
		}
		outcome = api.CacheHit
	case shared:
		s.metrics.singleflightShared.Add(1)
		outcome = api.CacheShared
	}
	return fp.plan, outcome, !shared && joined == 0, nil
}

// flightPlan is the result basePlan's flight shares: the base plan, and
// whether the cache held its key.
type flightPlan struct {
	plan *loopmap.Plan
	held bool
}

// buildBase is basePlan's flight body, for held keys and misses alike:
// it builds the key's plan under the admission gate on its Π-stage — the
// entry's, the one cached under its stage key, or a new one (stageFor) —
// so only Algorithm 1 onward runs on a cached stage.
//
// A held key counts a cache hit and a rebuild, not a computation, and
// writes nothing durable and replicates nothing: its payload is already
// wherever its first use put it. A stage-less recipe attaches the stage
// its use resolved. A held key whose build fails for any reason but the
// request's own deadline or the gate is dropped and counted as a miss,
// and its error answers the request, as a fresh daemon's computation
// would.
//
// A miss makes the key durable and caches its recipe: its canonical
// payload and the stage.
func (s *Server) buildBase(ctx context.Context, req *api.PlanRequest, key string) (any, error) {
	st, held := s.cache.get(key)
	if s.beforeBuild != nil {
		s.beforeBuild(key)
	}
	// durable: the key's canonical request needs no new WAL write.
	durable := held
	if !held {
		s.metrics.cacheMisses.Add(1)
		// Disk tier probe: a key whose canonical request already sits in
		// a segment recomputes (the pipeline is a pure function of it) and
		// re-enters RAM, even while the store is latched read-only.
		if s.tier != nil {
			_, durable, _ = s.tier.Get(repBasePrefix + key)
		}
		// A miss means new durable state: fail fast while the store is
		// read-only instead of burning a gate slot on a plan that cannot
		// be acked.
		if !durable {
			if err := s.writableStore(); err != nil {
				return nil, err
			}
		}
	}
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.gate.Release()

	var kb [128]byte
	skey := req.AppendStageKey(kb[:0])
	opt := planOptions(req)
	var err error
	if st == nil {
		var reused bool
		if st, reused, err = s.stageFor(ctx, req, skey, opt); err == nil && reused && !held {
			s.metrics.stageReuses.Add(1)
		}
	}
	var p *loopmap.Plan
	if err == nil {
		if !held {
			s.metrics.planComputations.Add(1)
		}
		p, err = st.PlanTransientCtx(ctx, opt)
	}
	if err != nil {
		if held && ctx.Err() == nil {
			// The pipeline is deterministic, so a miss would fail the
			// same way: answer as a fresh daemon does.
			s.cache.remove(key)
			s.metrics.cacheMisses.Add(1)
		}
		return nil, err
	}
	if held {
		s.metrics.cacheHits.Add(1)
		s.metrics.planRebuilds.Add(1)
		if ev := s.cache.attach(key, skey, st); ev > 0 {
			s.metrics.cacheEvictions.Add(int64(ev))
		}
		return flightPlan{plan: p, held: true}, nil
	}
	var payload []byte
	if s.tier != nil || s.cnode() != nil {
		// Cluster mode needs the canonical payload even without a local
		// store: it is the replication and transfer currency.
		payload = persistPayload(req)
	}
	// Durability before visibility: the WAL append must succeed before
	// the key enters the cache or the client sees a 200. A failed append
	// latches the store read-only and fails this request — never ack what
	// did not reach disk. A key already segment-durable skips the append:
	// re-touching an evicted key costs zero new WAL writes.
	if !durable {
		if err := s.persistPlan(key, payload); err != nil {
			p.Release()
			return nil, err
		}
	}
	if ev, _ := s.cache.put(key, skey, st, payload); ev > 0 {
		s.metrics.cacheEvictions.Add(int64(ev))
	}
	s.replicateBase(key, payload)
	return flightPlan{plan: p}, nil
}

// stageFor returns the request's Π-stage: the one cached under skey,
// or a new one from prepareStage, counted in StageBuilds. It reports
// whether the stage was cached. Keys that need one uncached stage at once
// share one build through a flight keyed by the stage key; every one of
// them gets the same stage.
func (s *Server) stageFor(ctx context.Context, req *api.PlanRequest, skey []byte, opt loopmap.PlanOptions) (*loopmap.Stage, bool, error) {
	if st, ok := s.cache.stage(skey); ok {
		return st, true, nil
	}
	fkey := string(skey)
	for {
		reused := false
		v, err, shared, _ := s.stageFlight.do(ctx, fkey, func() (any, error) {
			if st, ok := s.cache.stage(skey); ok {
				reused = true
				return st, nil
			}
			k, err := loopmap.LookupKernel(req.Kernel, req.Size)
			if err != nil {
				return nil, err
			}
			if s.beforeStageBuild != nil {
				s.beforeStageBuild(fkey)
			}
			s.metrics.stageBuilds.Add(1)
			return prepareStage(ctx, k, opt)
		})
		if shared && ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue // the leader's deadline, not this request's
		}
		if err != nil {
			return nil, false, err
		}
		return v.(*loopmap.Stage), reused, nil
	}
}

// prepareStage builds a Π-stage as the plan cache keeps it: enumeration,
// schedule and projection, then compacted, so the stage never holds a
// vertex set. Misses and stage-less recipes both build their stages
// here.
func prepareStage(ctx context.Context, k *loopmap.Kernel, opt loopmap.PlanOptions) (*loopmap.Stage, error) {
	st, err := loopmap.PrepareCtx(ctx, k, opt)
	if err != nil {
		return nil, err
	}
	return st.Compact(), nil
}

// usePlan runs use on the request's plan: its base plan (basePlan)
// remapped onto the request's cube dimension. Both are transient (see
// Stage.PlanTransientCtx). Once use returns, the remap is released, and
// so is the base when the request ran its flight alone; a base that
// followers share is left to the garbage collector. use must keep
// nothing it read from the plan.
func (s *Server) usePlan(ctx context.Context, req *api.PlanRequest, use func(p *loopmap.Plan) error) (api.CacheOutcome, error) {
	base, outcome, alone, err := s.basePlan(ctx, req)
	if err != nil {
		return outcome, err
	}
	if alone {
		defer base.Release()
	}
	p, err := base.RemapOpts(req.CubeDimOrDefault(), loopmap.MapOptions{Exclusive: req.Exclusive})
	if err != nil {
		return outcome, err
	}
	defer p.Release()
	if s.beforeUse != nil {
		s.beforeUse(req.Key())
	}
	return outcome, use(p)
}

// --- /v1/plan ---

// encodePlanFrame is the single encoder for the plan response shape:
// every field of the response that is a pure function of (request,
// plan), appended straight into a pooled buffer and framed. Cache and
// Cluster are left for writeFrame to patch in per request. The bytes are
// the ones encoding/json writes (without HTML escaping) for the
// api.PlanResponse these fields fill, which TestPlanResponseDigest checks
// on every body. Every /v1/plan and batched plan item goes through here
// exactly once per distinct (key, cube, exclusive) while the frame stays
// cached.
func encodePlanFrame(req *api.PlanRequest, p *loopmap.Plan) *respFrame {
	buf, text := getBuf(), getBuf()
	defer putBuf(buf)
	defer putBuf(text)
	buf.Grow(frameRoom)
	text.Grow(frameRoom)
	// Without a mapping phase ms is zero, as are the fields it fills.
	ms, _ := p.EvaluateMapping()
	b := append(buf.AvailableBuffer(), `{"kernel":`...)
	b = api.AppendJSONString(b, req.Kernel, false)
	b = appendField(b, `,"size":`, req.Size)
	if pi := p.Schedule.Pi; pi == nil {
		b = append(b, `,"pi":null`...)
	} else {
		b = append(b, `,"pi":[`...)
		for i, x := range pi {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, x, 10)
		}
		b = append(b, ']')
	}
	b = appendField(b, `,"steps":`, p.Schedule.Steps())
	b = appendField(b, `,"iterations":`, int64(p.Structure.Len()))
	b = appendField(b, `,"blocks":`, int64(p.Partitioning.NumBlocks()))
	b = appendField(b, `,"max_block":`, p.TIG.MaxLoad())
	b = appendField(b, `,"group_size_r":`, p.Partitioning.R)
	b = appendField(b, `,"beta":`, int64(p.Partitioning.Beta))
	b = appendField(b, `,"tig_edges":`, int64(len(p.TIG.Edges)))
	b = appendField(b, `,"tig_traffic":`, p.TIG.TotalTraffic())
	b = appendField(b, `,"max_out_degree":`, int64(p.TIG.MaxOutDegree()))
	b = appendField(b, `,"cube_dim":`, int64(req.CubeDimOrDefault()))
	b = appendField(b, `,"procs":`, int64(p.Procs()))
	// hop_weight through max_load are omitempty.
	for _, f := range [...]struct {
		name string
		x    int64
	}{
		{`,"hop_weight":`, ms.HopWeight},
		{`,"max_dilation":`, int64(ms.MaxDilation)},
		{`,"min_load":`, ms.MinLoad},
		{`,"max_load":`, ms.MaxLoad},
	} {
		if f.x != 0 {
			b = appendField(b, f.name, f.x)
		}
	}
	b = api.AppendJSONString(append(b, `,"summary":`...), p.AppendSummary(text.AvailableBuffer(), ms), false)
	return newFrame(b)
}

// frameRoom is what encodePlanFrame reserves in each pooled buffer: room
// for nearly every plan response and its summary text.
const frameRoom = 2048

// appendField appends a JSON member's separator and name, then x.
func appendField(b []byte, name string, x int64) []byte {
	return strconv.AppendInt(append(b, name...), x, 10)
}

// planFrame returns the encoded frame for a request: response-cache hit,
// or plan pipeline + one encode on miss. The returned CacheOutcome is
// what the patched-in "cache" field should report.
//
// An encoded-cache miss encodes its frame from the request's plan
// (usePlan), whether or not the plan cache holds its key.
func (s *Server) planFrame(ctx context.Context, req *api.PlanRequest) (*respFrame, api.CacheOutcome, bool, error) {
	ekey := req.ResponseKey()
	if f, ok := s.resp.get(ekey); ok {
		s.metrics.encodedHits.Add(1)
		s.metrics.cacheHits.Add(1)
		return f, api.CacheHit, true, nil
	}
	// Disk tier: a frame evicted from RAM but still segment-resident is
	// re-sliced and promoted back into the encoded cache — the whole
	// pipeline (plan, remap, encode) is skipped.
	if f, ok := s.tierFrame(ekey); ok {
		return f, api.CacheHit, true, nil
	}
	var f *respFrame
	outcome, err := s.usePlan(ctx, req, func(p *loopmap.Plan) error {
		f = encodePlanFrame(req, p)
		return nil
	})
	if err != nil {
		return nil, outcome, false, err
	}
	s.resp.put(ekey, f)
	s.demoteFrame(ekey, f)
	s.replicateFrame(req, ekey, f)
	return f, outcome, false, nil
}

// tierFrame looks one encoded frame up in the disk tier and, on a hit,
// promotes it into the encoded-response cache.
func (s *Server) tierFrame(ekey string) (*respFrame, bool) {
	if s.tier == nil {
		return nil, false
	}
	enc, ok, _ := s.tier.Get(repFramePrefix + ekey)
	if !ok {
		return nil, false
	}
	f := newRespFrame(enc)
	s.resp.put(ekey, f)
	s.metrics.encodedHits.Add(1)
	s.metrics.cacheHits.Add(1)
	return f, true
}

// demoteFrame writes one freshly-encoded frame through to the disk tier
// (write-ahead demotion: it lands on disk at encode time, not when the
// RAM cache eventually evicts it). The frame is derivable from the
// already-durable b| record, so a write failure only costs a future
// recompute — the error is counted, not surfaced.
func (s *Server) demoteFrame(ekey string, f *respFrame) {
	if s.tier == nil {
		return
	}
	if err := s.tier.Put(repFramePrefix+ekey, f.encoded()); err != nil {
		s.metrics.walErrors.Add(1)
	}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	bodyBuf := getBuf()
	defer putBuf(bodyBuf)
	if _, err := bodyBuf.ReadFrom(r.Body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading body: %w", err))
		return
	}
	body := bodyBuf.Bytes()
	req, err := decodePlanRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Fast path before validation: a frame cached under an identical
	// canonical key can only have been produced by a request that already
	// passed validation, so the hit needs no re-check (and no forward —
	// serving a pure-function response locally is always correct). The
	// base and encoded keys share one build buffer, and the lookup indexes
	// the cache with the bytes directly — the key string is only
	// materialized off the fast path (or for cluster metadata).
	kb := req.AppendKey(make([]byte, 0, 128))
	baseLen := len(kb)
	kb = req.AppendResponseSuffix(kb)
	if f, ok := s.resp.getBytes(kb); ok {
		s.metrics.encodedHits.Add(1)
		s.metrics.cacheHits.Add(1)
		hitKey := ""
		if s.cnode() != nil {
			hitKey = string(kb[:baseLen])
		}
		s.writeFrame(w, r, f, api.CacheHit, hitKey, true)
		return
	}
	key := string(kb[:baseLen])
	if err := s.validatePlanRequest(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.maybeForward(w, r, "/v1/plan", key, body, req.TimeoutMS) {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	f, outcome, encoded, err := s.planFrame(ctx, &req)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	s.writeFrame(w, r, f, outcome, key, encoded)
}

// --- /v1/simulate ---

// faultSchedule converts the JSON spec to the library's fault schedule.
func faultSchedule(f *api.FaultSpec) *loopmap.FaultSchedule {
	if f == nil {
		return nil
	}
	sch := &loopmap.FaultSchedule{
		Seed:     f.Seed,
		LossProb: f.LossProb,
		Retry:    loopmap.RetryPolicy{MaxAttempts: f.MaxAttempts, Backoff: f.Backoff},
		Checkpoint: loopmap.CheckpointPolicy{
			EverySteps:  f.CheckpointSteps,
			Cost:        f.CheckpointCost,
			RestartCost: f.RestartCost,
		},
	}
	for _, c := range f.Crashes {
		sch.Crashes = append(sch.Crashes, loopmap.NodeCrash{Node: c.Node, T: c.T})
	}
	for _, l := range f.LinkFailures {
		sch.LinkFailures = append(sch.LinkFailures, loopmap.LinkFailure{A: l.A, B: l.B, T: l.T})
	}
	return sch
}

// simParams resolves the request's machine-parameter preset and
// overrides, and checks its engine field.
func simParams(r *api.SimulateRequest) (machine.Params, error) {
	var p machine.Params
	switch r.Era {
	case "", "1991":
		p = machine.Era1991()
	case "unit":
		p = machine.Unit()
	case "balanced":
		p = machine.Balanced()
	default:
		return p, fmt.Errorf("serve: unknown era %q (have 1991, unit, balanced)", r.Era)
	}
	if r.TCalc != nil {
		p.TCalc = *r.TCalc
	}
	if r.TStart != nil {
		p.TStart = *r.TStart
	}
	if r.TComm != nil {
		p.TComm = *r.TComm
	}
	if r.THop != nil {
		p.THop = *r.THop
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	// The daemon has one simulator; "block" and "point" are accepted for
	// compatibility and return the same answer.
	switch r.Engine {
	case "", "block", "point":
		return p, nil
	}
	return p, fmt.Errorf("serve: unknown engine %q (have block, point)", r.Engine)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading body: %w", err))
		return
	}
	var req api.SimulateRequest
	if err := decodeJSONBytes(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.validatePlanRequest(&req.PlanRequest); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	params, err := simParams(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Simulation shards by the base-plan key: the owner's cache holds the
	// key's recipe and Π-stage, which every simulate variant builds on.
	key := req.PlanRequest.Key()
	if s.maybeForward(w, r, "/v1/simulate", key, body, req.TimeoutMS) {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	resp, err := s.simulate(ctx, &req, params)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	resp.Cluster = s.clusterMeta(key, r)
	writeJSON(w, http.StatusOK, resp)
}

// simulate answers a (possibly batched) simulate request: runSimulate on
// the request's plan (usePlan), with the plan's cache outcome. Cluster is
// left for the caller.
func (s *Server) simulate(ctx context.Context, req *api.SimulateRequest, params machine.Params) (*api.SimulateResponse, error) {
	var resp *api.SimulateResponse
	outcome, err := s.usePlan(ctx, &req.PlanRequest, func(p *loopmap.Plan) (err error) {
		resp, err = s.runSimulate(ctx, req, p, params)
		return err
	})
	if err != nil {
		return nil, err
	}
	resp.Cache = outcome
	return resp, nil
}

// runSimulate executes the simulation half of a (possibly batched)
// simulate request against its mapped plan: degraded remap, the
// simulation, the optional sequential baseline, and the optional trace. Cache
// and Cluster are left for the caller.
func (s *Server) runSimulate(ctx context.Context, req *api.SimulateRequest, p *loopmap.Plan, params machine.Params) (*api.SimulateResponse, error) {
	var degraded *api.DegradedInfo
	if len(req.FailedNodes) > 0 {
		dp, dstats, err := p.RemapDegraded(req.FailedNodes)
		if err != nil {
			return nil, err
		}
		p = dp
		degraded = &api.DegradedInfo{
			FailedNodes:       dstats.FailedNodes,
			MigratedBlocks:    dstats.MigratedBlocks,
			MaxMigrationHops:  dstats.MaxMigrationHops,
			ExtraHopWords:     dstats.ExtraHopWords,
			MakespanInflation: dstats.MakespanInflation,
		}
	}
	opt := loopmap.SimOptions{
		Aggregate:      req.Aggregate,
		LinkContention: req.Contention,
		Timeline:       req.Trace,
		Faults:         faultSchedule(req.Faults),
	}
	stats, err := p.SimulateCtx(ctx, params, opt)
	if err != nil {
		return nil, err
	}
	resp := &api.SimulateResponse{
		Makespan:       stats.Makespan,
		Messages:       stats.Messages,
		Words:          stats.Words,
		MaxProcOps:     stats.MaxProcOps,
		CriticalProc:   stats.CriticalProc(),
		Procs:          p.Procs(),
		Crashes:        stats.Crashes,
		Retransmits:    stats.Retransmits,
		CheckpointTime: stats.CheckpointTime,
		ReplayTime:     stats.ReplayTime,
		Degraded:       degraded,
	}
	if req.Sequential {
		seq, err := p.SimulateSequential(params)
		if err != nil {
			return nil, err
		}
		resp.SequentialMakespan = seq.Makespan
		if stats.Makespan > 0 {
			resp.Speedup = seq.Makespan / stats.Makespan
		}
	}
	if req.Trace {
		var buf bytes.Buffer
		if err := trace.Chrome(&buf, stats); err != nil {
			return nil, err
		}
		resp.Trace = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	}
	return resp, nil
}

// --- /v1/spmd ---

func (s *Server) handleSPMD(w http.ResponseWriter, r *http.Request) {
	var req api.SPMDRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, errors.New("serve: missing loop-DSL source"))
		return
	}
	if len(req.Source) > maxSourceBytes {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: source %d bytes exceeds the maximum %d", len(req.Source), maxSourceBytes))
		return
	}
	name := req.Name
	if name == "" {
		name = "loop"
	}
	dim := 2
	if req.CubeDim != nil {
		dim = *req.CubeDim
	}
	if dim > maxCubeDim {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: cube_dim %d exceeds the maximum %d", dim, maxCubeDim))
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	// SPMD generation is bounded by the admission gate like planning: the
	// parse is cheap but the embedded plan is not.
	if err := s.acquire(ctx); err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	defer s.gate.Release()

	src, err := loopmap.GenerateSPMDCtx(ctx, name, req.Source, dim, seed)
	if err != nil {
		code := errStatus(err)
		if code == http.StatusInternalServerError {
			// Parse and dependence-derivation failures are caller errors.
			code = http.StatusBadRequest
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, api.SPMDResponse{Source: src})
}

// --- /v1/kernels ---

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	names := loopmap.KernelNames()
	sort.Strings(names)
	out := make([]api.KernelInfo, 0, len(names))
	for _, n := range names {
		k, err := loopmap.LookupKernel(n, 4)
		if err != nil {
			continue
		}
		out = append(out, api.KernelInfo{Name: n, Dims: k.Nest.Dims, Deps: len(k.Deps), Pi: k.Pi})
	}
	writeJSON(w, http.StatusOK, out)
}

// --- health and metrics ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining() {
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if s.storeDegraded.Load() {
		// Degraded diverts load balancers via /readyz while /healthz
		// stays 200: the shard remains a live cluster member (cached
		// reads and forwarding still work), it just cannot take writes.
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
		w.Header().Set(api.ReadOnlyHeader, "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "degraded: durable store read-only")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Metrics().render(w)
}

// decodeJSON strictly decodes one JSON object from the request body.
func decodeJSON(r *http.Request, v any) error {
	b, err := io.ReadAll(r.Body)
	if err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	return decodeJSONBytes(b, v)
}

// decodePlanRequest decodes a /v1/plan body. The byte scanner handles
// what clients send; anything it declines goes through the strict
// encoding/json decoder, which alone decides rejections and their text.
// The request is returned by value, so a caller that keeps it on the
// stack allocates nothing for it when the scanner accepts.
func decodePlanRequest(b []byte) (api.PlanRequest, error) {
	var r api.PlanRequest
	if api.DecodePlanRequest(b, &r) {
		return r, nil
	}
	p := new(api.PlanRequest)
	err := decodeJSONBytes(b, p)
	return *p, err
}

// decodeJSONBytes strictly decodes one JSON object from a pre-read body
// (the forwarding path needs the raw bytes to relay): unknown fields and
// anything but whitespace after the object are errors.
func decodeJSONBytes(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	if len(bytes.TrimLeft(b[dec.InputOffset():], " \t\r\n")) > 0 {
		return fmt.Errorf("serve: bad request body: trailing data after the JSON object")
	}
	return nil
}
