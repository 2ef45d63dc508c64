// Metrics for the plan-serving daemon: atomic counters and gauges, fixed-
// bucket latency histograms, and a Prometheus-text-format renderer. The
// implementation is dependency-free on purpose — the daemon exposes the
// standard exposition format without pulling a client library into the
// module.
package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// latencyBuckets are the per-endpoint histogram upper bounds, in
// seconds: a 1-2-5 ladder from 10 µs to 5 s, fine enough that a hit
// (about 0.1 ms) and a miss of the same key fall in different buckets.
var latencyBuckets = []float64{
	10e-6, 20e-6, 50e-6, 100e-6, 200e-6, 500e-6,
	1e-3, 2e-3, 5e-3, 10e-3, 20e-3, 50e-3,
	0.1, 0.2, 0.5, 1, 2, 5,
}

// sizeBuckets are the upper bounds for count-shaped histograms (batch
// sizes, WAL group-commit sizes).
var sizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// histogram is a fixed-bucket histogram.
type histogram struct {
	buckets []float64
	mu      sync.Mutex
	counts  []int64 // one per bucket, plus the +Inf overflow at the end
	sum     float64
	total   int64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]int64, len(buckets)+1)}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// HistogramSnapshot is a histogram's state at one instant.
type HistogramSnapshot struct {
	// Buckets are the upper bounds; Cumulative[i] counts observations ≤
	// Buckets[i]. The final Cumulative entry is the total count (the +Inf
	// bucket).
	Buckets    []float64
	Cumulative []int64
	Sum        float64
	Count      int64
}

func (h *histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]int64, len(h.counts))
	var run int64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return HistogramSnapshot{Buckets: h.buckets, Cumulative: cum, Sum: h.sum, Count: h.total}
}

// statusCounters counts responses per HTTP status code.
type statusCounters struct {
	mu sync.Mutex
	m  map[int]int64
}

func (s *statusCounters) inc(code int) {
	s.mu.Lock()
	if s.m == nil {
		s.m = map[int]int64{}
	}
	s.m[code]++
	s.mu.Unlock()
}

func (s *statusCounters) snapshot() map[int]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]int64, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

// endpointMetrics aggregates one endpoint's request accounting.
type endpointMetrics struct {
	status  statusCounters
	latency *histogram
}

// metrics is the daemon's full instrument set.
type metrics struct {
	cacheHits          atomic.Int64
	cacheMisses        atomic.Int64
	cacheEvictions     atomic.Int64
	singleflightShared atomic.Int64
	planComputations   atomic.Int64
	stageReuses        atomic.Int64
	stageBuilds        atomic.Int64
	planRebuilds       atomic.Int64
	panics             atomic.Int64
	recoveredPlans     atomic.Int64
	recoverySkipped    atomic.Int64
	recoveryRejected   atomic.Int64 // skips caused by current admission limits specifically
	walAppends         atomic.Int64
	walErrors          atomic.Int64

	// storage-fault instruments.
	storeDegraded atomic.Int64 // gauge: 1 once the store latches read-only
	scrubRuns     atomic.Int64 // scrub passes completed
	scrubCorrupt  atomic.Int64 // segments quarantined by scrubbing

	// zero-copy and batching instruments.
	encodedHits     atomic.Int64 // responses served whole from the encoded cache
	notModified     atomic.Int64 // 304s answered by an If-None-Match ETag match
	bytesServed     atomic.Int64 // response body bytes, all endpoints
	encodedBytes    atomic.Int64 // response body bytes served from encoded frames
	batchItems      atomic.Int64 // items carried by /v1/batch requests
	batchSize       *histogram   // items per /v1/batch request
	groupCommitSize *histogram   // records per WAL group commit

	// cluster-mode instruments (stay zero in single-daemon mode).
	forwardsSent       atomic.Int64
	forwardsReceived   atomic.Int64
	forwardErrors      atomic.Int64
	forwardBudgetStops atomic.Int64
	forwardHops        atomic.Int64
	probeFailures      atomic.Int64
	// forwards answered by the owner with a read-only 503, served
	// locally instead.
	forwardReadOnlyLocal atomic.Int64

	// replication and elasticity instruments.
	replicasSent     atomic.Int64 // records pushed to a standby
	replicasReceived atomic.Int64 // replica-push requests accepted
	replicaErrors    atomic.Int64 // failed pushes (retried by the next compute, not here)
	replicaDrops     atomic.Int64 // records dropped on a full replication queue
	transfersServed  atomic.Int64 // bulk keyspace transfers served to joiners

	// anti-entropy and deadline-forwarding instruments.
	antientropyRounds           atomic.Int64 // digest exchanges attempted
	antientropyCleanRounds      atomic.Int64 // exchanges where the roots already matched
	antientropyDivergentBuckets atomic.Int64 // divergent leaf buckets localized
	antientropyRecordsPushed    atomic.Int64 // records pushed to the standby during repair
	antientropyRecordsPulled    atomic.Int64 // records pulled from the standby during repair
	antientropyErrors           atomic.Int64 // digest or pull exchanges that failed
	forwardDeadlineRejects      atomic.Int64 // forwarded requests refused because their deadline had passed

	endpoints map[string]*endpointMetrics // fixed at construction
}

func newMetrics(endpoints []string) *metrics {
	m := &metrics{
		endpoints:       make(map[string]*endpointMetrics, len(endpoints)),
		batchSize:       newHistogram(sizeBuckets),
		groupCommitSize: newHistogram(sizeBuckets),
	}
	for _, e := range endpoints {
		m.endpoints[e] = &endpointMetrics{latency: newHistogram(latencyBuckets)}
	}
	return m
}

func (m *metrics) observe(endpoint string, code int, seconds float64) {
	em, ok := m.endpoints[endpoint]
	if !ok {
		return
	}
	em.status.inc(code)
	em.latency.observe(seconds)
}

// EndpointSnapshot is one endpoint's accounting at one instant.
type EndpointSnapshot struct {
	Status  map[int]int64
	Latency HistogramSnapshot
}

// PeerHealth is one peer's probed liveness as rendered in /metrics.
type PeerHealth struct {
	ID               int
	Alive            bool
	ConsecutiveFails int
}

// Snapshot is the full metrics state at one instant, used both by the
// /metrics renderer and by tests asserting exact counter values.
type Snapshot struct {
	CacheHits          int64
	CacheMisses        int64
	CacheEvictions     int64
	SingleflightShared int64
	PlanComputations   int64
	StageReuses        int64 // plan computations that ran on a cached Π-stage
	StageBuilds        int64 // Π-stages built by computations and rebuilds
	PlanRebuilds       int64 // plans built for held keys (every use after a key's first, a loaded key's first)
	InflightPlans      int64
	CacheBytes         int64
	CacheEntries       int64
	Panics             int64
	RecoveredPlans     int64
	RecoverySkipped    int64
	RecoveryRejected   int64
	WALAppends         int64
	WALErrors          int64
	WALBytes           int64

	// Tiered disk-store accounting (zero without a disk cache).
	TieredDiskHits       int64
	TieredDiskMisses     int64
	TieredBloomNegatives int64
	TieredFlushes        int64
	TieredCompactions    int64
	TieredEvictions      int64
	TieredCorruptions    int64
	TieredQuarantined    int64
	TieredSegments       int64
	TieredBytes          int64
	TieredKeys           int64

	// Storage-fault accounting.
	StoreDegraded int64
	ScrubRuns     int64
	ScrubCorrupt  int64

	// Zero-copy and batching accounting.
	EncodedHits     int64
	NotModified     int64
	BytesServed     int64
	EncodedBytes    int64
	BatchItems      int64
	RespCacheBytes  int64
	RespCacheCount  int64
	BatchSize       HistogramSnapshot
	CommitGroupSize HistogramSnapshot

	// Cluster-mode accounting (ClusterN == 0 in single-daemon mode).
	ForwardsSent         int64
	ForwardsReceived     int64
	ForwardErrors        int64
	ForwardBudgetStops   int64
	ForwardHops          int64
	ProbeFailures        int64
	ForwardReadOnlyLocal int64

	// Replication and elasticity accounting.
	ReplicasSent     int64
	ReplicasReceived int64
	ReplicaErrors    int64
	ReplicaDrops     int64
	TransfersServed  int64

	// Anti-entropy and deadline-forwarding accounting.
	AntiEntropyRounds           int64
	AntiEntropyCleanRounds      int64
	AntiEntropyDivergentBuckets int64
	AntiEntropyRecordsPushed    int64
	AntiEntropyRecordsPulled    int64
	AntiEntropyErrors           int64
	ForwardDeadlineRejects      int64

	ClusterSelf  int
	ClusterN     int
	ClusterDim   int
	ClusterPeers []PeerHealth

	// Go runtime health, sampled at snapshot time.
	Goroutines          int
	HeapAllocBytes      int64
	HeapSysBytes        int64
	GCPauseTotalSeconds float64
	GCRuns              int64
	GoVersion           string
	Module              string

	Endpoints map[string]EndpointSnapshot
}

func (m *metrics) snapshot() Snapshot {
	s := Snapshot{
		CacheHits:            m.cacheHits.Load(),
		CacheMisses:          m.cacheMisses.Load(),
		CacheEvictions:       m.cacheEvictions.Load(),
		SingleflightShared:   m.singleflightShared.Load(),
		PlanComputations:     m.planComputations.Load(),
		StageReuses:          m.stageReuses.Load(),
		StageBuilds:          m.stageBuilds.Load(),
		PlanRebuilds:         m.planRebuilds.Load(),
		Panics:               m.panics.Load(),
		RecoveredPlans:       m.recoveredPlans.Load(),
		RecoverySkipped:      m.recoverySkipped.Load(),
		RecoveryRejected:     m.recoveryRejected.Load(),
		WALAppends:           m.walAppends.Load(),
		WALErrors:            m.walErrors.Load(),
		StoreDegraded:        m.storeDegraded.Load(),
		ScrubRuns:            m.scrubRuns.Load(),
		ScrubCorrupt:         m.scrubCorrupt.Load(),
		EncodedHits:          m.encodedHits.Load(),
		NotModified:          m.notModified.Load(),
		BytesServed:          m.bytesServed.Load(),
		EncodedBytes:         m.encodedBytes.Load(),
		BatchItems:           m.batchItems.Load(),
		BatchSize:            m.batchSize.snapshot(),
		CommitGroupSize:      m.groupCommitSize.snapshot(),
		ForwardsSent:         m.forwardsSent.Load(),
		ForwardsReceived:     m.forwardsReceived.Load(),
		ForwardErrors:        m.forwardErrors.Load(),
		ForwardBudgetStops:   m.forwardBudgetStops.Load(),
		ForwardHops:          m.forwardHops.Load(),
		ProbeFailures:        m.probeFailures.Load(),
		ForwardReadOnlyLocal: m.forwardReadOnlyLocal.Load(),

		ReplicasSent:     m.replicasSent.Load(),
		ReplicasReceived: m.replicasReceived.Load(),
		ReplicaErrors:    m.replicaErrors.Load(),
		ReplicaDrops:     m.replicaDrops.Load(),
		TransfersServed:  m.transfersServed.Load(),

		AntiEntropyRounds:           m.antientropyRounds.Load(),
		AntiEntropyCleanRounds:      m.antientropyCleanRounds.Load(),
		AntiEntropyDivergentBuckets: m.antientropyDivergentBuckets.Load(),
		AntiEntropyRecordsPushed:    m.antientropyRecordsPushed.Load(),
		AntiEntropyRecordsPulled:    m.antientropyRecordsPulled.Load(),
		AntiEntropyErrors:           m.antientropyErrors.Load(),
		ForwardDeadlineRejects:      m.forwardDeadlineRejects.Load(),

		Endpoints: make(map[string]EndpointSnapshot, len(m.endpoints)),
	}
	for name, em := range m.endpoints {
		s.Endpoints[name] = EndpointSnapshot{
			Status:  em.status.snapshot(),
			Latency: em.latency.snapshot(),
		}
	}
	return s
}

// render writes the snapshot in the Prometheus text exposition format.
func (s Snapshot) render(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("loopmapd_cache_hits_total", "Plan cache hits.", s.CacheHits)
	counter("loopmapd_cache_misses_total", "Plan cache misses.", s.CacheMisses)
	counter("loopmapd_cache_evictions_total", "Plan cache evictions.", s.CacheEvictions)
	counter("loopmapd_singleflight_shared_total", "Requests served by joining an in-flight computation.", s.SingleflightShared)
	counter("loopmapd_plan_computations_total", "Plans computed for keys the daemon did not hold.", s.PlanComputations)
	counter("loopmapd_stage_reuses_total", "Plan computations that reused a cached enumeration, schedule and projection.", s.StageReuses)
	counter("loopmapd_stage_builds_total", "Enumerations, schedules and projections built for a plan computation or rebuild that found no cached stage.", s.StageBuilds)
	counter("loopmapd_plan_rebuilds_total", "Plans built from a recipe for a key the plan cache held: any use after the key's first that no cached encoded response answered, and the first use of a key loaded from a durable record; counted as cache hits, not computations.", s.PlanRebuilds)
	counter("loopmapd_panics_total", "Handler panics recovered by the middleware.", s.Panics)
	counter("loopmapd_recovered_plans_total", "Keys recovered into the plan cache during warm restart.", s.RecoveredPlans)
	counter("loopmapd_recovery_skipped_total", "Durable records skipped during warm restart (undecodable, invalid, or key-mismatched).", s.RecoverySkipped)
	counter("loopmapd_recovery_rejected_total", "Durable records dropped during warm restart because they no longer pass the admission limits.", s.RecoveryRejected)
	counter("loopmapd_wal_appends_total", "Plan records appended to the durable WAL.", s.WALAppends)
	counter("loopmapd_wal_errors_total", "Durable store write failures (the daemon keeps serving).", s.WALErrors)
	counter("loopmapd_scrub_runs_total", "Background scrub passes completed.", s.ScrubRuns)
	counter("loopmapd_scrub_corrupt_total", "Segments quarantined by scrubbing after failing verification.", s.ScrubCorrupt)
	gauge("loopmapd_store_degraded", "1 once the durable store has latched read-only after a disk fault.", s.StoreDegraded)
	gauge("loopmapd_wal_bytes", "Current size of the durable store's active WAL.", s.WALBytes)
	gauge("loopmapd_inflight_plans", "Plan computations currently admitted.", s.InflightPlans)
	gauge("loopmapd_cache_bytes", "Estimated bytes held by the plan cache.", s.CacheBytes)
	gauge("loopmapd_cache_entries", "Entries held by the plan cache.", s.CacheEntries)

	// Tiered disk store (all zero without -disk-cache-dir).
	counter("loopmapd_tiered_disk_hits_total", "Reads served from the on-disk tier (segment or pre-flush memtable).", s.TieredDiskHits)
	counter("loopmapd_tiered_disk_misses_total", "Reads that missed the on-disk tier entirely.", s.TieredDiskMisses)
	counter("loopmapd_tiered_bloom_negatives_total", "Segment probes answered absent by the bloom filter without a disk read.", s.TieredBloomNegatives)
	counter("loopmapd_tiered_flushes_total", "Memtable-to-segment flushes completed by the tier.", s.TieredFlushes)
	counter("loopmapd_tiered_compactions_total", "Background segment compactions completed by the tier.", s.TieredCompactions)
	counter("loopmapd_tiered_evictions_total", "Segments evicted by compaction to stay under the disk budget.", s.TieredEvictions)
	counter("loopmapd_tiered_corruptions_total", "CRC or decode failures observed on tier reads.", s.TieredCorruptions)
	counter("loopmapd_tiered_quarantined_total", "Segments quarantined after failing verification.", s.TieredQuarantined)
	gauge("loopmapd_tiered_segments", "Live segment files in the on-disk tier.", s.TieredSegments)
	gauge("loopmapd_tiered_bytes", "Total segment bytes held by the on-disk tier.", s.TieredBytes)
	gauge("loopmapd_tiered_keys", "Entries across the tier's segments and memtable.", s.TieredKeys)

	// Zero-copy and batching.
	counter("loopmapd_encoded_hits_total", "Responses served whole from the encoded-response cache.", s.EncodedHits)
	counter("loopmapd_304_total", "Conditional requests answered 304 Not Modified by an ETag match.", s.NotModified)
	counter("loopmapd_response_bytes_total", "Response body bytes served across all endpoints.", s.BytesServed)
	counter("loopmapd_encoded_bytes_total", "Response body bytes served from cached encoded frames.", s.EncodedBytes)
	counter("loopmapd_batch_items_total", "Items carried by /v1/batch requests.", s.BatchItems)
	gauge("loopmapd_resp_cache_bytes", "Bytes held by the encoded-response cache.", s.RespCacheBytes)
	gauge("loopmapd_resp_cache_entries", "Entries held by the encoded-response cache.", s.RespCacheCount)
	renderHistogram(w, "loopmapd_batch_size", "Items per /v1/batch request.", s.BatchSize)
	renderHistogram(w, "loopmapd_wal_group_commit_size", "Records written per fsync=always WAL group commit.", s.CommitGroupSize)

	// Go runtime health.
	gauge("loopmapd_goroutines", "Live goroutines.", int64(s.Goroutines))
	gauge("loopmapd_heap_alloc_bytes", "Bytes of allocated heap objects.", s.HeapAllocBytes)
	gauge("loopmapd_heap_sys_bytes", "Heap memory obtained from the OS.", s.HeapSysBytes)
	counter("loopmapd_gc_runs_total", "Completed GC cycles.", s.GCRuns)
	fmt.Fprintf(w, "# HELP loopmapd_gc_pause_seconds_total Cumulative GC stop-the-world pause time.\n# TYPE loopmapd_gc_pause_seconds_total counter\nloopmapd_gc_pause_seconds_total %g\n", s.GCPauseTotalSeconds)
	fmt.Fprintf(w, "# HELP loopmapd_build_info Build metadata (value is always 1).\n# TYPE loopmapd_build_info gauge\nloopmapd_build_info{go_version=%q,module=%q} 1\n", s.GoVersion, s.Module)

	if s.ClusterN > 0 {
		gauge("loopmapd_cluster_size", "Shards in the static peer list.", int64(s.ClusterN))
		gauge("loopmapd_cluster_dim", "Hypercube dimension (forwarding hop budget).", int64(s.ClusterDim))
		gauge("loopmapd_cluster_self", "This daemon's shard ID.", int64(s.ClusterSelf))
		counter("loopmapd_cluster_forwards_sent_total", "Requests forwarded one hop toward their owner shard.", s.ForwardsSent)
		counter("loopmapd_cluster_forwards_received_total", "Forwarded requests received from peer shards.", s.ForwardsReceived)
		counter("loopmapd_cluster_forward_errors_total", "Forward attempts that failed and fell back to serving locally.", s.ForwardErrors)
		counter("loopmapd_cluster_forward_budget_stops_total", "Forwards refused at the hop budget or on a routing loop.", s.ForwardBudgetStops)
		counter("loopmapd_cluster_forward_readonly_local_total", "Forwards answered with a read-only 503 by the owner and served locally instead.", s.ForwardReadOnlyLocal)
		counter("loopmapd_cluster_forward_hops_total", "Total e-cube hops traversed by requests this shard served.", s.ForwardHops)
		counter("loopmapd_cluster_probe_failures_total", "Failed peer health probes.", s.ProbeFailures)
		counter("loopmapd_cluster_replicas_sent_total", "Records pushed to this shard's Gray-ring standby.", s.ReplicasSent)
		counter("loopmapd_cluster_replicas_received_total", "Replica-push requests accepted from primaries.", s.ReplicasReceived)
		counter("loopmapd_cluster_replica_errors_total", "Replica pushes that failed.", s.ReplicaErrors)
		counter("loopmapd_cluster_replica_drops_total", "Replica records dropped on a full queue.", s.ReplicaDrops)
		counter("loopmapd_cluster_transfers_served_total", "Bulk keyspace transfers served to joining shards.", s.TransfersServed)
		counter("loopmapd_antientropy_rounds_total", "Digest anti-entropy exchanges attempted with the standby.", s.AntiEntropyRounds)
		counter("loopmapd_antientropy_clean_rounds_total", "Anti-entropy exchanges whose digest roots already matched.", s.AntiEntropyCleanRounds)
		counter("loopmapd_antientropy_divergent_buckets_total", "Divergent digest buckets localized across all repairs.", s.AntiEntropyDivergentBuckets)
		counter("loopmapd_antientropy_records_pushed_total", "Records pushed to the standby by anti-entropy repair.", s.AntiEntropyRecordsPushed)
		counter("loopmapd_antientropy_records_pulled_total", "Records pulled back from the standby by anti-entropy repair.", s.AntiEntropyRecordsPulled)
		counter("loopmapd_antientropy_errors_total", "Anti-entropy digest or pull exchanges that failed.", s.AntiEntropyErrors)
		counter("loopmapd_cluster_forward_deadline_rejects_total", "Forwarded requests refused because their propagated deadline had already passed.", s.ForwardDeadlineRejects)
		fmt.Fprintf(w, "# HELP loopmapd_cluster_peer_alive Peer liveness by shard ID (1 alive, 0 dead).\n# TYPE loopmapd_cluster_peer_alive gauge\n")
		for _, p := range s.ClusterPeers {
			v := 0
			if p.Alive {
				v = 1
			}
			fmt.Fprintf(w, "loopmapd_cluster_peer_alive{shard=\"%d\"} %d\n", p.ID, v)
		}
	}

	names := make([]string, 0, len(s.Endpoints))
	for n := range s.Endpoints {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "# HELP loopmapd_requests_total Requests by endpoint and status code.\n# TYPE loopmapd_requests_total counter\n")
	for _, n := range names {
		codes := make([]int, 0, len(s.Endpoints[n].Status))
		for c := range s.Endpoints[n].Status {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "loopmapd_requests_total{endpoint=%q,code=\"%d\"} %d\n", n, c, s.Endpoints[n].Status[c])
		}
	}

	fmt.Fprintf(w, "# HELP loopmapd_request_seconds Request latency by endpoint.\n# TYPE loopmapd_request_seconds histogram\n")
	for _, n := range names {
		h := s.Endpoints[n].Latency
		if h.Count == 0 {
			continue
		}
		for i, ub := range h.Buckets {
			fmt.Fprintf(w, "loopmapd_request_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", n, ub, h.Cumulative[i])
		}
		fmt.Fprintf(w, "loopmapd_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(w, "loopmapd_request_seconds_sum{endpoint=%q} %g\n", n, h.Sum)
		fmt.Fprintf(w, "loopmapd_request_seconds_count{endpoint=%q} %d\n", n, h.Count)
	}
}

// renderHistogram writes one unlabeled histogram in the exposition
// format.
func renderHistogram(w io.Writer, name, help string, h HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, ub := range h.Buckets {
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, ub, h.Cumulative[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}
