// Package serve implements loopmapd, the concurrent plan-serving daemon:
// an HTTP/JSON front-end over the Sheu–Tai pipeline that plans, simulates,
// and code-generates on demand.
//
// The pipeline is a pure function of (kernel, size, Π, partition options),
// which makes its artifacts ideal for content-addressed caching: requests
// are canonicalized into a cache key over exactly those inputs, base plans
// (partitioning + TIG, no mapping) are held in a byte-budgeted LRU, and
// each request remaps the shared base onto its own cube dimension with
// Plan.Remap. A thundering herd of identical requests collapses to one
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
	// AcquireTimeout bounds how long a request queues for an admission
	// slot before the daemon sheds it with 503 + Retry-After (default
	// 1s). Shedding beats queueing when the gate is saturated: the
	// client learns to back off while its deadline still has budget.
	AcquireTimeout time.Duration
	// MaxKernelSize caps the size parameter of built-in kernels (default
	// 128); MaxCubeDim caps the hypercube dimension (default 10);
	// MaxBodyBytes caps a request body (default 1 MiB); MaxSourceBytes
	// caps inline DSL source (default 64 KiB).
	MaxKernelSize  int64
	MaxCubeDim     int
	MaxBodyBytes   int64
	MaxSourceBytes int
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
	// Fsync is the WAL durability policy: "always", "interval" (default),
	// or "never"; FsyncEvery is the interval-policy flush period (default
	// 100ms). Under "always", concurrent writes share one write+fsync.
	Fsync      string
	FsyncEvery time.Duration
	// FS overrides the filesystem the durable store runs on (nil = the
	// real one). Tests, TestScenario/diskchaos among them, inject the
	// fault-injecting implementation here; production leaves it unset.
	FS persist.FS
	// ScrubInterval paces the background scrubber that re-verifies the
	// durable store's checksums at rest (default 1m, negative disables);
	// ScrubRate throttles one pass's read bandwidth in bytes/sec (default
	// 8 MiB/s, negative removes the throttle). No effect without
	// DiskCacheDir.
	ScrubInterval time.Duration
	ScrubRate     int64
	// RespCacheBytes is the encoded-response cache budget (default
	// 16 MiB). Fully-encoded /v1/plan responses are cached here so a hit
	// is a single buffer write; 0 uses the default, negative disables.
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
	if c.AcquireTimeout <= 0 {
		c.AcquireTimeout = time.Second
	}
	if c.MaxKernelSize <= 0 {
		c.MaxKernelSize = 128
	}
	if c.MaxCubeDim <= 0 {
		c.MaxCubeDim = 10
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 64 << 10
	}
	if c.ScrubInterval == 0 {
		c.ScrubInterval = time.Minute
	}
	if c.ScrubRate == 0 {
		c.ScrubRate = 8 << 20
	}
	if c.RespCacheBytes == 0 {
		c.RespCacheBytes = 16 << 20
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// endpoints instrumented individually in /metrics.
var endpointNames = []string{
	"/v1/plan", "/v1/simulate", "/v1/spmd", "/v1/kernels", "/v1/batch",
	"/v1/cluster", "/v1/replica", "/v1/replica/digest", "/v1/replica/pull",
	"/v1/admin/join", "/v1/admin/leave",
	"/v1/admin/drain", "/v1/admin/transfer", "/healthz", "/readyz", "/metrics",
}

// Server is the daemon's handler set and shared state.
type Server struct {
	cfg     Config
	cache   *planCache
	resp    *respCache // encoded /v1/plan responses (nil when disabled)
	flight  flightGroup
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
		gate:    pool.NewGate(cfg.MaxInflight),
		metrics: newMetrics(endpointNames),
		drain:   make(chan struct{}),
		mux:     http.NewServeMux(),
	}
	if cfg.RespCacheBytes > 0 {
		s.resp = newRespCache(cfg.RespCacheBytes)
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
	b, n := s.cache.stats()
	s.metrics.cacheBytes.Store(b)
	s.metrics.cacheEntries.Store(int64(n))
	if s.resp != nil {
		rb, rn := s.resp.stats()
		s.metrics.respCacheBytes.Store(rb)
		s.metrics.respCacheCount.Store(int64(rn))
	}
	s.metrics.inflightPlans.Store(int64(s.gate.InFlight()))
	if s.tier != nil {
		ts := s.tier.Stats()
		s.metrics.tieredDiskHits.Store(ts.DiskHits)
		s.metrics.tieredDiskMisses.Store(ts.DiskMisses)
		s.metrics.tieredBloomNegatives.Store(ts.BloomNegatives)
		s.metrics.tieredFlushes.Store(ts.Flushes)
		s.metrics.tieredCompactions.Store(ts.Compactions)
		s.metrics.tieredEvictions.Store(ts.Evictions)
		s.metrics.tieredCorruptions.Store(ts.Corruptions)
		s.metrics.tieredQuarantined.Store(ts.Quarantined)
		s.metrics.tieredSegments.Store(ts.Segments)
		s.metrics.tieredBytes.Store(ts.Bytes)
		s.metrics.tieredKeys.Store(ts.Keys)
		s.metrics.walBytes.Store(ts.WALBytes)
	}
	snap := s.metrics.snapshot()

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
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
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
		s.cfg.Logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.code,
			"dur_ms", float64(elapsed.Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
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
		errors.Is(err, loopmap.ErrTooLarge):
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
	if d := r.CubeDimOrDefault(); d > s.cfg.MaxCubeDim {
		return fmt.Errorf("serve: cube_dim %d exceeds the maximum %d", d, s.cfg.MaxCubeDim)
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
// AcquireTimeout: a saturated gate sheds load with ErrOverloaded (503 +
// Retry-After) instead of holding the connection until its deadline.
func (s *Server) acquire(ctx context.Context) error {
	if s.gate.TryAcquire() {
		return nil
	}
	actx, cancel := context.WithTimeout(ctx, s.cfg.AcquireTimeout)
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

// basePlan returns the base (unmapped) plan for the request: LRU lookup,
// then singleflight-deduplicated computation under the admission gate.
//
// The leader computes under its own request context: followers share the
// leader's result AND its fate — if the leader's deadline fires first, the
// followers see its cancellation error and may retry. This is the standard
// singleflight trade; the alternative (detached computation) would let an
// abandoned request burn a gate slot with nobody waiting.
func (s *Server) basePlan(ctx context.Context, req *api.PlanRequest) (*loopmap.Plan, api.CacheOutcome, error) {
	key := req.Key()
	if p, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		return p, api.CacheHit, nil
	}
	v, err, shared := s.flight.do(ctx, key, func() (any, error) {
		// Double-check under the flight: a prior leader may have populated
		// the cache between this request's lookup and its arrival here.
		if p, ok := s.cache.get(key); ok {
			s.metrics.cacheHits.Add(1)
			return p, nil
		}
		s.metrics.cacheMisses.Add(1)
		// Disk tier probe: a key whose canonical request already sits in a
		// segment needs no new WAL write — it recomputes (the pipeline is a
		// pure function of it) and re-enters RAM, even while the store is
		// latched read-only.
		diskDurable := false
		if s.tier != nil {
			if _, ok, _ := s.tier.Get(repBasePrefix + key); ok {
				diskDurable = true
			}
		}
		// A miss means new durable state: fail fast while the store is
		// read-only instead of burning a gate slot on a plan that cannot
		// be acked.
		if !diskDurable {
			if err := s.writableStore(); err != nil {
				return nil, err
			}
		}
		if err := s.acquire(ctx); err != nil {
			return nil, err
		}
		defer s.gate.Release()
		s.metrics.inflightPlans.Add(1)
		defer s.metrics.inflightPlans.Add(-1)

		skey := string(req.AppendStageKey(make([]byte, 0, 64)))
		p, err := s.computePlan(ctx, req, skey)
		if err != nil {
			return nil, err
		}
		var payload []byte
		if s.tier != nil || s.cnode() != nil {
			// Cluster mode needs the canonical payload even without a
			// local store: it is the replication and transfer currency.
			payload = persistPayload(req)
		}
		// Durability before visibility: the WAL append must succeed
		// before the plan enters the cache or the client sees a 200. A
		// failed append latches the store read-only and fails this
		// request — never ack what did not reach disk. A key already
		// segment-durable skips the append: re-touching an evicted key
		// costs zero new WAL writes.
		if !diskDurable {
			if err := s.persistPlan(key, payload); err != nil {
				return nil, err
			}
		}
		if ev := s.cache.put(key, skey, p, payload); ev > 0 {
			s.metrics.cacheEvictions.Add(int64(ev))
		}
		s.replicateBase(key, payload)
		return p, nil
	})
	if err != nil {
		return nil, api.CacheMiss, err
	}
	outcome := api.CacheMiss
	if shared {
		s.metrics.singleflightShared.Add(1)
		outcome = api.CacheShared
	}
	return v.(*loopmap.Plan), outcome, nil
}

// computePlan builds the request's base plan. A Π-stage cached under
// skey is reused, so only Algorithm 1 onward runs; otherwise the whole
// pipeline runs and put caches the new stage with the plan.
func (s *Server) computePlan(ctx context.Context, req *api.PlanRequest, skey string) (*loopmap.Plan, error) {
	opt := planOptions(req)
	st, ok := s.cache.stage(skey)
	if !ok {
		k, err := loopmap.LookupKernel(req.Kernel, req.Size)
		if err != nil {
			return nil, err
		}
		s.metrics.planComputations.Add(1)
		if st, err = loopmap.PrepareCtx(ctx, k, opt); err != nil {
			return nil, err
		}
		return st.PlanCtx(ctx, opt)
	}
	s.metrics.planComputations.Add(1)
	s.metrics.stageReuses.Add(1)
	return st.PlanCtx(ctx, opt)
}

// mappedPlan remaps the base plan onto the request's cube dimension.
func (s *Server) mappedPlan(ctx context.Context, req *api.PlanRequest) (*loopmap.Plan, api.CacheOutcome, error) {
	base, outcome, err := s.basePlan(ctx, req)
	if err != nil {
		return nil, outcome, err
	}
	p, err := base.RemapOpts(req.CubeDimOrDefault(), loopmap.MapOptions{Exclusive: req.Exclusive})
	if err != nil {
		return nil, outcome, err
	}
	return p, outcome, nil
}

// --- /v1/plan ---

// buildPlanResponse fills the invariant part of a plan response — every
// field that is a pure function of (request, plan). Cache and Cluster
// stay zero; writeFrame patches them per request.
func buildPlanResponse(req *api.PlanRequest, p *loopmap.Plan) *api.PlanResponse {
	// Without a mapping phase ms is zero, as are the fields it fills.
	ms, _ := p.EvaluateMapping()
	return &api.PlanResponse{
		Kernel:       req.Kernel,
		Size:         req.Size,
		Pi:           p.Schedule.Pi,
		Steps:        p.Schedule.Steps(),
		Iterations:   len(p.Structure.V),
		Blocks:       p.Partitioning.NumBlocks(),
		MaxBlock:     p.Partitioning.MaxBlockSize(),
		GroupSizeR:   p.Partitioning.R,
		Beta:         p.Partitioning.Beta,
		TIGEdges:     len(p.TIG.Edges),
		TIGTraffic:   p.TIG.TotalTraffic(),
		MaxOutDegree: p.TIG.MaxOutDegree(),
		CubeDim:      req.CubeDimOrDefault(),
		Procs:        p.Procs(),
		Summary:      p.SummaryWith(ms),
		HopWeight:    ms.HopWeight,
		MaxDilation:  ms.MaxDilation,
		MinLoad:      ms.MinLoad,
		MaxLoad:      ms.MaxLoad,
	}
}

// encodePlanFrame is the single encoder for the plan response shape:
// invariant response → JSON bytes → frame. Every /v1/plan and batched
// plan item goes through here exactly once per distinct (key, cube,
// exclusive) while the frame stays cached.
func encodePlanFrame(req *api.PlanRequest, p *loopmap.Plan) (*respFrame, error) {
	buf := getBuf()
	defer putBuf(buf)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(buildPlanResponse(req, p)); err != nil {
		return nil, err
	}
	return newRespFrame(buf.Bytes()), nil
}

// planFrame returns the encoded frame for a request: response-cache hit,
// or plan pipeline + one encode on miss. The returned CacheOutcome is
// what the patched-in "cache" field should report.
func (s *Server) planFrame(ctx context.Context, req *api.PlanRequest) (*respFrame, api.CacheOutcome, bool, error) {
	ekey := req.ResponseKey()
	if s.resp != nil {
		if f, ok := s.resp.get(ekey); ok {
			s.metrics.encodedHits.Add(1)
			s.metrics.cacheHits.Add(1)
			return f, api.CacheHit, true, nil
		}
	}
	// Disk tier: a frame evicted from RAM but still segment-resident is
	// re-sliced and promoted back into the encoded cache — the whole
	// pipeline (plan, remap, encode) is skipped.
	if f, ok := s.tierFrame(ekey); ok {
		return f, api.CacheHit, true, nil
	}
	p, outcome, err := s.mappedPlan(ctx, req)
	if err != nil {
		return nil, outcome, false, err
	}
	f, err := encodePlanFrame(req, p)
	if err != nil {
		return nil, outcome, false, err
	}
	if s.resp != nil {
		s.resp.put(ekey, f)
	}
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
	if s.resp != nil {
		s.resp.put(ekey, f)
	}
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
	enc := make([]byte, 0, len(f.prefix)+2)
	enc = append(enc, f.prefix...)
	enc = append(enc, '}', '\n')
	if err := s.tier.Put(repFramePrefix+ekey, enc); err != nil {
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
	var req api.PlanRequest
	if err := decodeJSONBytes(body, &req); err != nil {
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
	if s.resp != nil {
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
// overrides.
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
	return p, p.Validate()
}

// simEngine resolves the request's engine selector.
func simEngine(r *api.SimulateRequest) (loopmap.SimEngine, error) {
	switch r.Engine {
	case "", "block":
		return loopmap.EngineBlock, nil
	case "point":
		return loopmap.EnginePoint, nil
	default:
		return 0, fmt.Errorf("serve: unknown engine %q (have block, point)", r.Engine)
	}
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
	engine, err := simEngine(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Simulation shards by the base-plan key: the owner's cache holds the
	// expensive partitioning, and every simulate variant remaps it.
	key := req.PlanRequest.Key()
	if s.maybeForward(w, r, "/v1/simulate", key, body, req.TimeoutMS) {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	p, outcome, err := s.mappedPlan(ctx, &req.PlanRequest)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	resp, err := runSimulate(ctx, &req, p, params, engine)
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	resp.Cache = outcome
	resp.Cluster = s.clusterMeta(key, r)
	writeJSON(w, http.StatusOK, resp)
}

// runSimulate executes the simulation half of a (possibly batched)
// simulate request against its mapped plan: degraded remap, the engine
// run, the optional sequential baseline, and the optional trace. Cache
// and Cluster are left for the caller.
func runSimulate(ctx context.Context, req *api.SimulateRequest, p *loopmap.Plan, params machine.Params, engine loopmap.SimEngine) (*api.SimulateResponse, error) {
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
		Engine:         engine,
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
	if len(req.Source) > s.cfg.MaxSourceBytes {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: source %d bytes exceeds the maximum %d", len(req.Source), s.cfg.MaxSourceBytes))
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
	if dim > s.cfg.MaxCubeDim {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: cube_dim %d exceeds the maximum %d", dim, s.cfg.MaxCubeDim))
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
	s.metrics.inflightPlans.Add(1)
	defer s.metrics.inflightPlans.Add(-1)

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
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	return nil
}

// decodeJSONBytes strictly decodes one JSON object from a pre-read body
// (the forwarding path needs the raw bytes to relay).
func decodeJSONBytes(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	return nil
}
