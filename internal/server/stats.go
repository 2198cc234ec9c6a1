package server

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"bsched/internal/cluster"
	"bsched/internal/engine"
	"bsched/internal/obs"
	"bsched/internal/sched"
)

// Stage label values the server records itself, alongside the
// compile.Stage* names (deps, weights, schedule, regalloc) the engine
// reports from the pipeline's compile.Options.SpanObserver.
const (
	stageParse   = "parse"   // IR parsing in the handler goroutine
	stageLookup  = "lookup"  // content-addressed cache lookup
	stageDisk    = "disk"    // persistent-cache probe after a memory miss
	stageQueue   = "queue"   // enqueue → worker pickup wait
	stageCompile = "compile" // whole compileFn call inside a worker
)

// Stats is the daemon's instrument panel, backed by an internal/obs
// registry so that the exact same instruments serve both GET /stats
// (JSON snapshot) and GET /metrics (Prometheus text exposition).
// Counters cost one atomic add; a Snapshot is a consistent-enough
// point-in-time copy for monitoring (individual counters are exact,
// cross-counter invariants like hits+misses == lookups may be
// momentarily off by in-flight requests). docs/OBSERVABILITY.md
// catalogs every registered metric.
type Stats struct {
	reg *obs.Registry

	requests      *obs.Counter // bschedd_requests_total
	ok            *obs.Counter // bschedd_responses_total{outcome="ok"}
	clientErrors  *obs.Counter // bschedd_responses_total{outcome="client_error"}
	compileErrors *obs.Counter // bschedd_responses_total{outcome="compile_error"}
	rejected      *obs.Counter // bschedd_responses_total{outcome="rejected"}
	cacheHits     *obs.Counter // bschedd_cache_events_total{event="hit"}
	cacheMisses   *obs.Counter // bschedd_cache_events_total{event="miss"}
	coalesced     *obs.Counter // bschedd_cache_events_total{event="coalesced"}
	degradations  *obs.Counter // bschedd_degradations_total

	// Block-granular cache events: one sample per block dispatched,
	// versus the request-level bschedd_cache_events_total above (one per
	// program). The gap between the two is exactly the cross-program
	// block reuse the block-granular key buys.
	blockHits      *obs.Counter // bschedd_block_cache_events_total{outcome="hit"}
	blockMisses    *obs.Counter // bschedd_block_cache_events_total{outcome="miss"}
	blockCoalesced *obs.Counter // bschedd_block_cache_events_total{outcome="coalesced"}
	blockDisk      *obs.Counter // bschedd_block_cache_events_total{outcome="disk"}
	blockPeer      *obs.Counter // bschedd_block_cache_events_total{outcome="peer"}

	// Batch-endpoint instruments (POST /v1/compile/batch).
	batchRequests  *obs.Counter        // bschedd_batch_requests_total
	blocksStreamed *obs.Counter        // bschedd_batch_blocks_streamed_total
	disk           *engine.DiskMetrics // bschedd_diskcache_* counters
	hist           *obs.Histogram
	stages         *obs.HistogramVec
	tiers          *obs.HistogramVec

	// Cluster peer-protocol instruments (docs/CLUSTER.md). Eagerly
	// materialized children so every family renders in /metrics from
	// startup, fleet or standalone.
	probeHit, probeMiss, probeError, probeSkip *obs.Counter // bschedd_peer_probes_total{outcome}
	offerSent, offerDropped                    *obs.Counter // bschedd_peer_offers_total{outcome}

	// Admission-control instruments (the overload-resilience PR).
	shedSojourn   *obs.Counter    // bschedd_admission_total{outcome="shed_sojourn"}
	shedFull      *obs.Counter    // bschedd_admission_total{outcome="shed_full"}
	quotaRejected *obs.Counter    // bschedd_admission_total{outcome="quota"}
	infeasible    *obs.Counter    // bschedd_admission_total{outcome="deadline_infeasible"}
	queueReqs     *obs.CounterVec // bschedd_queue_requests_total{priority}
	breakerTrip   *obs.Counter    // bschedd_breaker_events_total{event="trip"}
	breakerProbe  *obs.Counter    // bschedd_breaker_events_total{event="probe"}
	breakerClose  *obs.Counter    // bschedd_breaker_events_total{event="recover"}
	breakerReject *obs.Counter    // bschedd_breaker_events_total{event="reject"}

	// Continuous-profiling captures by kind (cpu, heap) and trigger
	// reason (periodic, breaker_open, shed_burst). All zero without
	// -profile-dir.
	profileCaptures *obs.CounterVec // bschedd_profile_captures_total{kind,reason}

	// Scheduling-policy portfolio outcomes (docs/POLICIES.md): blocks
	// compiled per policy, and the deterministic schedule-length estimate
	// (instructions + pass-1 starvation no-ops, in issue slots) per
	// policy. Children for every registered policy are materialized
	// eagerly so both families render in /metrics from startup.
	policyBlocks *obs.CounterVec   // bschedd_policy_blocks_total{policy}
	policyCycles *obs.HistogramVec // bschedd_policy_cycles{policy}

	// Per-tenant counters, label-bounded: the first maxTenantLabels
	// distinct tenants get their own label value; the rest aggregate
	// under "_other" so a tenant-id cardinality attack cannot balloon
	// /metrics. The tenants map mirrors the vec children so /stats can
	// enumerate them (CounterVec has no iterator).
	tenantReqs     *obs.CounterVec // bschedd_tenant_requests_total{tenant}
	tenantRejects  *obs.CounterVec // bschedd_tenant_rejected_total{tenant}
	tenantMu       sync.Mutex
	tenantCounters map[string]*tenantCounters
}

// maxTenantLabels bounds per-tenant metric cardinality.
const maxTenantLabels = 64

// tenantOverflow aggregates tenants past the label bound.
const tenantOverflow = "_other"

// tenantCounters is one tenant's pair of counters, cached so the hot
// path is a map read plus an atomic add.
type tenantCounters struct {
	requests, rejected *obs.Counter
}

// tenant returns the (possibly overflow-aggregated) counters for a
// tenant, creating them on first sight.
func (s *Stats) tenant(name string) *tenantCounters {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if tc, ok := s.tenantCounters[name]; ok {
		return tc
	}
	label := name
	if len(s.tenantCounters) >= maxTenantLabels {
		label = tenantOverflow
	}
	tc := &tenantCounters{
		requests: s.tenantReqs.With(label),
		rejected: s.tenantRejects.With(label),
	}
	if label == tenantOverflow {
		// Don't grow the map per overflow tenant — that would defeat the
		// bound; every overflow name shares the one "_other" entry.
		if shared, ok := s.tenantCounters[tenantOverflow]; ok {
			return shared
		}
		s.tenantCounters[tenantOverflow] = tc
		return tc
	}
	s.tenantCounters[name] = tc
	return tc
}

// newStats builds the registry and registers every request-driven
// instrument; the Server registers its gauges (queue depth, cache
// residency, uptime) on the same registry from New, where it owns the
// state they sample.
func newStats() *Stats {
	reg := obs.NewRegistry()
	responses := reg.CounterVec("bschedd_responses_total",
		"Completed requests by outcome: ok, client_error, compile_error or rejected.",
		"outcome")
	cacheEvents := reg.CounterVec("bschedd_cache_events_total",
		"Schedule-cache lookups by result: hit, miss (became a compile leader) or coalesced (joined an in-flight compile).",
		"event")
	diskEvents := reg.CounterVec("bschedd_diskcache_events_total",
		"Persistent schedule-cache operations: hit (record served from disk after a memory miss), miss (no valid disk record either), write (record persisted) or evict (cold record dropped at compaction). All zero without -cache-dir.",
		"event")
	disk := &engine.DiskMetrics{
		Hits:      diskEvents.With("hit"),
		Misses:    diskEvents.With("miss"),
		Writes:    diskEvents.With("write"),
		Evictions: diskEvents.With("evict"),
		Loaded: reg.Counter("bschedd_diskcache_records_loaded_total",
			"Valid records indexed from persistent-cache segments during startup replay."),
		Corrupt: reg.Counter("bschedd_diskcache_corrupt_records_total",
			"Torn or corrupt persistent-cache records skipped (at replay, on read, or at compaction) instead of being served."),
		Stale: reg.Counter("bschedd_diskcache_stale_records_total",
			"Healthy records in the retired program-keyed on-disk format, skipped (not indexed) at replay; the affected programs recompile once and re-persist under block keys (docs/CACHE-KEYS.md)."),
		IOErrors: reg.Counter("bschedd_diskcache_io_errors_total",
			"Persistent-cache read/append failures at the I/O layer (as opposed to corrupt data) — the signal that trips the disk circuit breaker."),
	}
	peerProbes := reg.CounterVec("bschedd_peer_probes_total",
		"Peer-cache lookups this node sent to ring owners, by outcome: hit (response reused, no local compile), miss (owner had nothing either), error (transport/protocol failure — feeds the peer's circuit breaker) or skip (breaker open or in-flight bound reached; compiled locally). All zero without -peers.",
		"outcome")
	peerOffers := reg.CounterVec("bschedd_peer_offers_total",
		"Write-behind offers of locally compiled foreign-owned schedules, by outcome: sent (owner acknowledged) or dropped (queue full or retries exhausted). All zero without -peers.",
		"outcome")
	adm := reg.CounterVec("bschedd_admission_total",
		"Requests refused by admission control: shed_sojourn (CoDel sojourn over target), shed_full (bounded queue at capacity), quota (tenant over its token bucket) or deadline_infeasible (remaining deadline below the tier's p99 compile estimate).",
		"outcome")
	breaker := reg.CounterVec("bschedd_breaker_events_total",
		"Disk-cache circuit-breaker events: trip (opened), probe (half-open probe admitted), recover (probe succeeded, closed again) or reject (disk I/O skipped while open).",
		"event")
	disk.Rejects = breaker.With("reject")
	policyBlocks := reg.CounterVec("bschedd_policy_blocks_total",
		"Blocks compiled by scheduling policy (docs/POLICIES.md): the registered portfolio names. An \"auto\" request contributes under the policy the decision rule picked for the block, so the split shows what actually ran, not what was asked for.",
		"policy")
	policyCycles := reg.HistogramVec("bschedd_policy_cycles",
		"Schedule length per compiled block, in issue slots (final instructions plus pass-1 starvation no-ops), by scheduling policy — the deterministic per-policy outcome estimate; cycle-accurate comparison lives in the offline differential harness.",
		cycleBuckets, "policy")
	for _, name := range sched.PolicyNames() {
		policyBlocks.With(name)
		policyCycles.With(name)
	}
	blockEvents := reg.CounterVec("bschedd_block_cache_events_total",
		"Per-block cache dispatch outcomes: hit (completed in-memory entry), miss (this request became the block's compile leader), coalesced (joined another request's in-flight block), disk (served from the persistent layer) or peer (served by the block's ring owner). One program request contributes one sample per block, so cross-program block reuse shows up here as hits the request-level counters never see.",
		"outcome")
	return &Stats{
		reg: reg,
		requests: reg.Counter("bschedd_requests_total",
			"POST /v1/compile requests accepted for processing (decoded, validated and parsed)."),
		ok:            responses.With("ok"),
		clientErrors:  responses.With("client_error"),
		compileErrors: responses.With("compile_error"),
		rejected:      responses.With("rejected"),
		cacheHits:     cacheEvents.With("hit"),
		cacheMisses:   cacheEvents.With("miss"),
		coalesced:     cacheEvents.With("coalesced"),
		degradations: reg.Counter("bschedd_degradations_total",
			"Degradation-ladder downgrade events across all compilations."),
		blockHits:      blockEvents.With("hit"),
		blockMisses:    blockEvents.With("miss"),
		blockCoalesced: blockEvents.With("coalesced"),
		blockDisk:      blockEvents.With("disk"),
		blockPeer:      blockEvents.With("peer"),
		batchRequests: reg.Counter("bschedd_batch_requests_total",
			"POST /v1/compile/batch requests accepted (after body decode)."),
		blocksStreamed: reg.Counter("bschedd_batch_blocks_streamed_total",
			"Per-block NDJSON frames written by the batch endpoint."),
		disk:         disk,
		probeHit:     peerProbes.With("hit"),
		probeMiss:    peerProbes.With("miss"),
		probeError:   peerProbes.With("error"),
		probeSkip:    peerProbes.With("skip"),
		offerSent:    peerOffers.With("sent"),
		offerDropped: peerOffers.With("dropped"),
		hist: reg.Histogram("bschedd_request_duration_seconds",
			"End-to-end service time of successful compile requests.", nil),
		stages: reg.HistogramVec("bschedd_stage_duration_seconds",
			"Latency by pipeline stage: parse, lookup, queue, compile, deps, weights, schedule, regalloc.",
			nil, "stage"),
		tiers: reg.HistogramVec("bschedd_compile_duration_seconds",
			"Worker-side compilation time by work-budget tier (small, default, large, unlimited).",
			nil, "tier"),
		shedSojourn:   adm.With("shed_sojourn"),
		shedFull:      adm.With("shed_full"),
		quotaRejected: adm.With("quota"),
		infeasible:    adm.With("deadline_infeasible"),
		queueReqs: reg.CounterVec("bschedd_queue_requests_total",
			"Compilations enqueued by priority class (interactive, batch).",
			"priority"),
		breakerTrip:   breaker.With("trip"),
		breakerProbe:  breaker.With("probe"),
		breakerClose:  breaker.With("recover"),
		breakerReject: breaker.With("reject"),
		tenantReqs: reg.CounterVec("bschedd_tenant_requests_total",
			"POST /v1/compile requests by tenant (X-Tenant header; \"default\" for anonymous traffic, \"_other\" past the label-cardinality bound).",
			"tenant"),
		tenantRejects: reg.CounterVec("bschedd_tenant_rejected_total",
			"Requests refused with 429 because the tenant's token bucket was empty.",
			"tenant"),
		profileCaptures: reg.CounterVec("bschedd_profile_captures_total",
			"Continuous-profiling captures by kind (cpu, heap) and trigger reason (periodic, breaker_open, shed_burst). All zero without -profile-dir.",
			"kind", "reason"),
		policyBlocks:   policyBlocks,
		policyCycles:   policyCycles,
		tenantCounters: make(map[string]*tenantCounters),
	}
}

// cycleBuckets are the bschedd_policy_cycles histogram bounds: schedule
// lengths are small integers (issue slots), so the default
// seconds-denominated latency buckets would collapse every sample into
// +Inf. Powers of two cover one-instruction blocks through the largest
// budget-bounded schedules.
var cycleBuckets = []float64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// observePolicy records one compiled block's policy outcome; it is the
// engine's Config.ObservePolicy seam. Safe for concurrent use.
func (s *Stats) observePolicy(policy string, scheduleSlots int) {
	s.policyBlocks.With(policy).Inc()
	s.policyCycles.With(policy).Observe(float64(scheduleSlots))
}

// registerRuntimeMetrics adds process-identity and Go-runtime health
// instruments: a build_info gauge (the Prometheus info idiom — constant
// 1, identity in the labels) plus goroutine count and heap residency,
// sampled at scrape time.
func registerRuntimeMetrics(reg *obs.Registry) {
	goVersion, modVersion, modPath := runtime.Version(), "(devel)", "bsched"
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
		if bi.Main.Path != "" {
			modPath = bi.Main.Path
		}
		if bi.Main.Version != "" {
			modVersion = bi.Main.Version
		}
	}
	reg.Info("bschedd_build_info",
		"Build identity of the running bschedd binary; constant 1, identity in the labels.",
		[]string{"go_version", "path", "version"},
		[]string{goVersion, modPath, modVersion})
	reg.Gauge("go_goroutines",
		"Goroutines currently live in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.Gauge("go_memstats_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.HeapAlloc)
		})
}

// observeStage records one per-stage latency sample; it is the
// engine's Config.ObserveStage, which also receives the pipeline's
// stage timings. Safe for concurrent use.
func (s *Stats) observeStage(stage string, d time.Duration) {
	s.stages.With(stage).ObserveDuration(d)
}

// LatencySummary is the JSON shape of one per-stage or per-tier latency
// breakdown inside a Snapshot.
type LatencySummary struct {
	// Count is the number of samples recorded.
	Count int64 `json:"count"`
	// P50Millis / P99Millis are fixed-bucket quantile estimates in
	// milliseconds.
	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`
}

// Snapshot is the JSON shape of GET /stats. Every field present before
// the observability PR is unchanged; Stages and Tiers are additive.
type Snapshot struct {
	Requests      int64 `json:"requests"`
	OK            int64 `json:"ok"`
	ClientErrors  int64 `json:"client_errors"`
	CompileErrors int64 `json:"compile_errors"`
	Rejected      int64 `json:"rejected"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	Coalesced     int64 `json:"coalesced"`
	Degradations  int64 `json:"degradations"`
	// Block-granular cache dispatch outcomes (one per block, versus the
	// per-program counters above). BlockHits minus per-program hits is
	// the cross-program block reuse the block-keyed cache buys.
	BlockHits      int64 `json:"block_hits"`
	BlockMisses    int64 `json:"block_misses"`
	BlockCoalesced int64 `json:"block_coalesced"`
	BlockDisk      int64 `json:"block_disk"`
	BlockPeer      int64 `json:"block_peer"`
	// Batch-endpoint counters: batches accepted and per-block NDJSON
	// frames streamed.
	BatchRequests  int64 `json:"batch_requests"`
	BlocksStreamed int64 `json:"blocks_streamed"`
	QueueDepth     int   `json:"queue_depth"`
	QueueCapacity  int   `json:"queue_capacity"`
	Workers        int   `json:"workers"`
	CacheEntries   int   `json:"cache_entries"`
	// Persistent (disk) schedule-cache counters — all zero when the
	// daemon runs without -cache-dir. DiskHits counts requests served by
	// decoding a record from disk after a memory miss; DiskWarmEntries is
	// the warm-start figure: records indexed from segment replay when the
	// process started.
	DiskHits           int64 `json:"disk_hits"`
	DiskMisses         int64 `json:"disk_misses"`
	DiskWrites         int64 `json:"disk_writes"`
	DiskEvictions      int64 `json:"disk_evictions"`
	DiskRecordsLoaded  int64 `json:"disk_records_loaded"`
	DiskCorruptRecords int64 `json:"disk_corrupt_records"`
	// DiskStaleRecords counts healthy records in the retired
	// program-keyed format skipped at replay (docs/CACHE-KEYS.md).
	DiskStaleRecords int64 `json:"disk_stale_records"`
	DiskEntries      int   `json:"disk_entries"`
	DiskBytes        int64 `json:"disk_bytes"`
	DiskWarmEntries  int   `json:"disk_warm_entries"`
	// P50/P99 service time of successful compilations, in milliseconds,
	// estimated from a fixed-bucket histogram
	// (obs.DefaultLatencyBuckets).
	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`
	// Stages breaks latency down by pipeline stage (parse, lookup,
	// queue, compile, deps, weights, schedule, regalloc); Tiers breaks
	// worker-side compile time down by work-budget tier. Both are empty
	// until the first request flows through.
	Stages map[string]LatencySummary `json:"stages,omitempty"`
	Tiers  map[string]LatencySummary `json:"tiers,omitempty"`
	// LastTraceID is the trace id of the most recent successful compile
	// response (the request-duration histogram's exemplar) — a concrete
	// GET /v1/traces/{id} starting point. TracesRetained counts traces
	// currently held by the tail-based sampler. Empty/zero when tracing
	// is disabled.
	LastTraceID    string `json:"last_trace_id,omitempty"`
	TracesRetained int    `json:"traces_retained,omitempty"`
	// Admission-control counters (see docs/ROBUSTNESS.md, "Overload
	// behavior"): ShedSojourn/ShedFull are 503s from the CoDel controller
	// and the hard queue bound; QuotaRejected are 429s; DeadlineRejected
	// are fail-fast 503s for requests whose remaining deadline was below
	// the tier's p99 compile estimate.
	ShedSojourn      int64 `json:"shed_sojourn"`
	ShedFull         int64 `json:"shed_full"`
	QuotaRejected    int64 `json:"quota_rejected"`
	DeadlineRejected int64 `json:"deadline_rejected"`
	// QueueInteractive/QueueBatch are the per-class backlogs behind
	// QueueDepth (their sum); RetryAfterSeconds is the adaptive estimate
	// a 503 would carry right now.
	QueueInteractive  int `json:"queue_interactive"`
	QueueBatch        int `json:"queue_batch"`
	RetryAfterSeconds int `json:"retry_after_s"`
	// Disk circuit breaker: state is "closed", "open" or "half-open";
	// trips counts lifetime openings; DiskIOErrors counts the I/O
	// failures that feed it.
	BreakerState string `json:"breaker_state"`
	BreakerTrips int64  `json:"breaker_trips"`
	DiskIOErrors int64  `json:"disk_io_errors"`
	// QuotaTenants is how many tenant token buckets are tracked; Tenants
	// is the per-tenant request/rejection breakdown (label-bounded, so
	// heavy cardinality aggregates under "_other").
	QuotaTenants int                      `json:"quota_tenants"`
	Tenants      map[string]TenantSummary `json:"tenants,omitempty"`
	// PolicyBlocks counts compiled blocks per scheduling policy;
	// PolicyCycles is the per-policy schedule-length breakdown, in issue
	// slots (docs/POLICIES.md). Policies with no blocks yet are omitted.
	PolicyBlocks map[string]int64        `json:"policy_blocks,omitempty"`
	PolicyCycles map[string]CycleSummary `json:"policy_cycles,omitempty"`
	// Cluster is this node's fleet view (docs/CLUSTER.md); absent for a
	// standalone daemon, so single-node /stats output is unchanged.
	Cluster *ClusterSummary `json:"cluster,omitempty"`
}

// CycleSummary is one policy's schedule-length breakdown inside a
// Snapshot — counts and quantiles in issue slots, not milliseconds.
type CycleSummary struct {
	Count    int64   `json:"count"`
	P50Slots float64 `json:"p50_slots"`
	P99Slots float64 `json:"p99_slots"`
}

// policySummaries snapshots the per-policy counters for /stats,
// dropping policies that have compiled nothing so an idle daemon's
// /stats output stays unchanged.
func (s *Stats) policySummaries() (map[string]int64, map[string]CycleSummary) {
	blocks := make(map[string]int64)
	for _, name := range sched.PolicyNames() {
		if v := s.policyBlocks.With(name).Value(); v > 0 {
			blocks[name] = v
		}
	}
	cycles := make(map[string]CycleSummary)
	s.policyCycles.Each(func(values []string, h *obs.Histogram) {
		if h.Count() == 0 {
			return
		}
		cycles[values[0]] = CycleSummary{
			Count:    h.Count(),
			P50Slots: h.Quantile(0.50),
			P99Slots: h.Quantile(0.99),
		}
	})
	if len(blocks) == 0 {
		blocks = nil
	}
	if len(cycles) == 0 {
		cycles = nil
	}
	return blocks, cycles
}

// ClusterSummary is the fleet slice of a Snapshot.
type ClusterSummary struct {
	// Self is this node's advertised URL; Peers the configured peer
	// URLs; RingNodes the real nodes the ring places keys over
	// (self included).
	Self      string   `json:"self"`
	Peers     []string `json:"peers"`
	RingNodes int      `json:"ring_nodes"`
	// Unreachable lists peers whose circuit breaker is currently open.
	Unreachable []string `json:"unreachable,omitempty"`
	// Probe and offer counters, mirroring bschedd_peer_probes_total and
	// bschedd_peer_offers_total.
	ProbeHits     int64 `json:"probe_hits"`
	ProbeMisses   int64 `json:"probe_misses"`
	ProbeErrors   int64 `json:"probe_errors"`
	ProbeSkips    int64 `json:"probe_skips"`
	OffersSent    int64 `json:"offers_sent"`
	OffersDropped int64 `json:"offers_dropped"`
}

// clusterMetrics adapts the peer counters to the cluster package's
// metric seam.
func (s *Stats) clusterMetrics() cluster.Metrics {
	return cluster.Metrics{
		ProbeHit:     s.probeHit,
		ProbeMiss:    s.probeMiss,
		ProbeError:   s.probeError,
		ProbeSkip:    s.probeSkip,
		OfferSent:    s.offerSent,
		OfferDropped: s.offerDropped,
	}
}

// clusterSummary snapshots the fleet view for /stats.
func (s *Stats) clusterSummary(cl *cluster.Client) *ClusterSummary {
	return &ClusterSummary{
		Self:          cl.Self(),
		Peers:         cl.Peers(),
		RingNodes:     cl.RingNodes(),
		Unreachable:   cl.Unreachable(),
		ProbeHits:     s.probeHit.Value(),
		ProbeMisses:   s.probeMiss.Value(),
		ProbeErrors:   s.probeError.Value(),
		ProbeSkips:    s.probeSkip.Value(),
		OffersSent:    s.offerSent.Value(),
		OffersDropped: s.offerDropped.Value(),
	}
}

// TenantSummary is one tenant's slice of the Snapshot.
type TenantSummary struct {
	Requests int64 `json:"requests"`
	Rejected int64 `json:"rejected"`
}

// tenantSummaries snapshots the per-tenant counters for /stats.
func (s *Stats) tenantSummaries() map[string]TenantSummary {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if len(s.tenantCounters) == 0 {
		return nil
	}
	out := make(map[string]TenantSummary, len(s.tenantCounters))
	for name, tc := range s.tenantCounters {
		out[name] = TenantSummary{Requests: tc.requests.Value(), Rejected: tc.rejected.Value()}
	}
	return out
}

// snapshot copies the counters and summarizes the histograms;
// queue/worker/cache/trace gauges are filled in by the server, which
// owns them.
func (s *Stats) snapshot() Snapshot {
	lastTrace := ""
	if _, id, ok := s.hist.Exemplar(); ok {
		lastTrace = id
	}
	policyBlocks, policyCycles := s.policySummaries()
	return Snapshot{
		PolicyBlocks:       policyBlocks,
		PolicyCycles:       policyCycles,
		LastTraceID:        lastTrace,
		Requests:           s.requests.Value(),
		OK:                 s.ok.Value(),
		ClientErrors:       s.clientErrors.Value(),
		CompileErrors:      s.compileErrors.Value(),
		Rejected:           s.rejected.Value(),
		CacheHits:          s.cacheHits.Value(),
		CacheMisses:        s.cacheMisses.Value(),
		Coalesced:          s.coalesced.Value(),
		Degradations:       s.degradations.Value(),
		BlockHits:          s.blockHits.Value(),
		BlockMisses:        s.blockMisses.Value(),
		BlockCoalesced:     s.blockCoalesced.Value(),
		BlockDisk:          s.blockDisk.Value(),
		BlockPeer:          s.blockPeer.Value(),
		BatchRequests:      s.batchRequests.Value(),
		BlocksStreamed:     s.blocksStreamed.Value(),
		DiskHits:           s.disk.Hits.Value(),
		DiskMisses:         s.disk.Misses.Value(),
		DiskWrites:         s.disk.Writes.Value(),
		DiskEvictions:      s.disk.Evictions.Value(),
		DiskRecordsLoaded:  s.disk.Loaded.Value(),
		DiskCorruptRecords: s.disk.Corrupt.Value(),
		DiskStaleRecords:   s.disk.Stale.Value(),
		DiskIOErrors:       s.disk.IOErrors.Value(),
		ShedSojourn:        s.shedSojourn.Value(),
		ShedFull:           s.shedFull.Value(),
		QuotaRejected:      s.quotaRejected.Value(),
		DeadlineRejected:   s.infeasible.Value(),
		Tenants:            s.tenantSummaries(),
		P50Millis:          s.hist.Quantile(0.50) * 1000,
		P99Millis:          s.hist.Quantile(0.99) * 1000,
		Stages:             summarize(s.stages),
		Tiers:              summarize(s.tiers),
	}
}

// CounterTotals returns the Snapshot's monotonically increasing
// counter fields keyed by their JSON names — the fields the fleet
// aggregation endpoint sums across nodes. Gauges (queue depth, cache
// entries, quantile estimates) are deliberately absent: summing
// instantaneous values across scrape moments would manufacture numbers
// no node ever reported. This is the list fleet-obs-smoke asserts
// "fleet totals == sum of node-local /stats" over.
func (s *Snapshot) CounterTotals() map[string]int64 {
	return map[string]int64{
		"requests":             s.Requests,
		"ok":                   s.OK,
		"client_errors":        s.ClientErrors,
		"compile_errors":       s.CompileErrors,
		"rejected":             s.Rejected,
		"cache_hits":           s.CacheHits,
		"cache_misses":         s.CacheMisses,
		"coalesced":            s.Coalesced,
		"degradations":         s.Degradations,
		"block_hits":           s.BlockHits,
		"block_misses":         s.BlockMisses,
		"block_coalesced":      s.BlockCoalesced,
		"block_disk":           s.BlockDisk,
		"block_peer":           s.BlockPeer,
		"batch_requests":       s.BatchRequests,
		"blocks_streamed":      s.BlocksStreamed,
		"disk_hits":            s.DiskHits,
		"disk_misses":          s.DiskMisses,
		"disk_writes":          s.DiskWrites,
		"disk_evictions":       s.DiskEvictions,
		"disk_records_loaded":  s.DiskRecordsLoaded,
		"disk_corrupt_records": s.DiskCorruptRecords,
		"disk_stale_records":   s.DiskStaleRecords,
		"disk_io_errors":       s.DiskIOErrors,
		"shed_sojourn":         s.ShedSojourn,
		"shed_full":            s.ShedFull,
		"quota_rejected":       s.QuotaRejected,
		"deadline_rejected":    s.DeadlineRejected,
		"breaker_trips":        s.BreakerTrips,
	}
}

// summarize flattens a one-label histogram vec into the Snapshot's
// breakdown maps.
func summarize(v *obs.HistogramVec) map[string]LatencySummary {
	out := make(map[string]LatencySummary)
	v.Each(func(values []string, h *obs.Histogram) {
		out[values[0]] = LatencySummary{
			Count:     h.Count(),
			P50Millis: h.Quantile(0.50) * 1000,
			P99Millis: h.Quantile(0.99) * 1000,
		}
	})
	if len(out) == 0 {
		return nil
	}
	return out
}
