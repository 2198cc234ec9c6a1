package server

import (
	"runtime"
	"runtime/debug"
	"sync"

	"bsched/internal/engine"
	"bsched/internal/obs"
)

// Labels (and span names) of the stages the server times itself,
// beside the engine.Stage* names (disk, peer, queue, coalesced,
// compile) and the compile.Stage* names (deps, weights, schedule,
// regalloc) the engine reports.
const (
	stageParse  = "parse"  // IR parsing, per program
	stageLookup = "lookup" // the per-block resolves, per program
)

// Stats is the daemon's instrument panel, backed by an internal/obs
// registry whose snapshot is the one view of the metrics: GET /stats
// serves it as JSON, GET /metrics renders it as Prometheus text, and the
// fleet endpoints merge the peers' /stats. Stats holds the families the
// server updates; the engine registers its own on the same registry
// (engine.Config.Registry). Counters cost one atomic add; a snapshot is
// a consistent-enough point-in-time copy for monitoring (individual
// counters are exact, cross-counter invariants like hits+misses ==
// lookups may be momentarily off by in-flight requests).
// docs/OBSERVABILITY.md catalogs every registered metric.
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
	cacheDisk     *obs.Counter // bschedd_cache_events_total{event="disk"}
	cachePeer     *obs.Counter // bschedd_cache_events_total{event="peer"}

	// Block-granular cache events: one sample per block resolved, versus
	// the request-level bschedd_cache_events_total above (one per
	// program). The gap between the two is exactly the cross-program
	// block reuse the block-granular key buys.
	blockHits      *obs.Counter // bschedd_block_cache_events_total{outcome="hit"}
	blockMisses    *obs.Counter // bschedd_block_cache_events_total{outcome="miss"}
	blockCoalesced *obs.Counter // bschedd_block_cache_events_total{outcome="coalesced"}
	blockDisk      *obs.Counter // bschedd_block_cache_events_total{outcome="disk"}
	blockPeer      *obs.Counter // bschedd_block_cache_events_total{outcome="peer"}

	// Batch-endpoint instruments (POST /v1/compile/batch).
	batchRequests  *obs.Counter // bschedd_batch_requests_total
	blocksStreamed *obs.Counter // bschedd_batch_blocks_streamed_total
	hist           *obs.Histogram
	stages         *obs.HistogramVec

	// Cluster offer counters (docs/CLUSTER.md), which the cluster client
	// counts. Eagerly materialized so the family renders in /metrics from
	// startup, fleet or standalone.
	offerSent, offerDropped *obs.Counter // bschedd_peer_offers_total{outcome}

	// Admission-control instruments (the overload-resilience PR).
	shedSojourn   *obs.Counter    // bschedd_admission_total{outcome="shed_sojourn"}
	shedFull      *obs.Counter    // bschedd_admission_total{outcome="shed_full"}
	quotaRejected *obs.Counter    // bschedd_admission_total{outcome="quota"}
	infeasible    *obs.Counter    // bschedd_admission_total{outcome="deadline_infeasible"}
	queueReqs     *obs.CounterVec // bschedd_queue_requests_total{priority}

	// Continuous-profiling captures by kind (cpu, heap) and trigger
	// reason (periodic, breaker_open, shed_burst), which the profiler
	// counts. All zero without -profile-dir.
	profileCaptures *obs.CounterVec // bschedd_profile_captures_total{kind,reason}

	// Per-tenant counters, label-bounded: the first maxTenantLabels
	// distinct tenants get their own label value; the rest aggregate
	// under "_other" so a tenant-id cardinality attack cannot balloon
	// /metrics. The tenants map counts the labels handed out, which is
	// what enforces the bound, and caches each tenant's pair of counters.
	tenantReqs     *obs.CounterVec // bschedd_tenant_requests_total{tenant}
	tenantRejects  *obs.CounterVec // bschedd_tenant_rejected_total{tenant}
	tenantMu       sync.Mutex
	tenantCounters map[string]*tenantCounters
}

// cache is src's bschedd_cache_events_total counter, the one a program
// counts under when src is its worst block's source.
func (s *Stats) cache(src engine.Source) *obs.Counter {
	return [...]*obs.Counter{engine.SourceMemory: s.cacheHits, engine.SourcePeer: s.cachePeer,
		engine.SourceDisk: s.cacheDisk, engine.SourceCoalesced: s.coalesced, engine.SourceMiss: s.cacheMisses}[src]
}

// block is src's bschedd_block_cache_events_total counter.
func (s *Stats) block(src engine.Source) *obs.Counter {
	return [...]*obs.Counter{engine.SourceMemory: s.blockHits, engine.SourcePeer: s.blockPeer,
		engine.SourceDisk: s.blockDisk, engine.SourceCoalesced: s.blockCoalesced, engine.SourceMiss: s.blockMisses}[src]
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
// instrument, the peer offer and profile families included: those stay
// registered without -peers or -profile-dir, so the catalog does not
// depend on flags. The engine registers its families, and New the
// server's gauges, on the same registry.
func newStats() *Stats {
	reg := obs.NewRegistry()
	responses := reg.CounterVec("bschedd_responses_total",
		"Completed requests by outcome: ok, client_error, compile_error or rejected.",
		"outcome")
	cacheEvents := reg.CounterVec("bschedd_cache_events_total",
		"Compile requests by cache disposition, their worst block's: hit (memory), peer (the ring owner's copy), disk (the persistent layer), coalesced (joined an in-flight compile) or miss (became a compile leader).",
		"event")
	peerOffers := reg.CounterVec("bschedd_peer_offers_total",
		"Write-behind offers of locally compiled foreign-owned schedules, by outcome: sent (owner acknowledged) or dropped (queue full or retries exhausted). All zero without -peers.",
		"outcome")
	adm := reg.CounterVec("bschedd_admission_total",
		"Requests refused by admission control: shed_sojourn (CoDel sojourn over target), shed_full (bounded queue at capacity), quota (tenant over its token bucket) or deadline_infeasible (remaining deadline below the tier's p99 compile estimate).",
		"outcome")
	blockEvents := reg.CounterVec("bschedd_block_cache_events_total",
		"Per-block cache dispatch outcomes: hit (completed in-memory entry), miss (this request became the block's compile leader), coalesced (joined another request's in-flight block), disk (served from the persistent layer) or peer (served by the block's ring owner). One program request contributes one sample per block, so cross-program block reuse shows up here as hits the request-level counters never see.",
		"outcome")
	return &Stats{
		reg: reg,
		requests: reg.Counter("bschedd_requests_total",
			"POST /v1/compile requests accepted for processing (decoded, validated and parsed)."),
		ok:             responses.With("ok"),
		clientErrors:   responses.With("client_error"),
		compileErrors:  responses.With("compile_error"),
		rejected:       responses.With("rejected"),
		cacheHits:      cacheEvents.With("hit"),
		cacheMisses:    cacheEvents.With("miss"),
		coalesced:      cacheEvents.With("coalesced"),
		cacheDisk:      cacheEvents.With("disk"),
		cachePeer:      cacheEvents.With("peer"),
		blockHits:      blockEvents.With("hit"),
		blockMisses:    blockEvents.With("miss"),
		blockCoalesced: blockEvents.With("coalesced"),
		blockDisk:      blockEvents.With("disk"),
		blockPeer:      blockEvents.With("peer"),
		batchRequests: reg.Counter("bschedd_batch_requests_total",
			"POST /v1/compile/batch requests accepted (after body decode)."),
		blocksStreamed: reg.Counter("bschedd_batch_blocks_streamed_total",
			"Per-block NDJSON frames written by the batch endpoint."),
		offerSent:    peerOffers.With("sent"),
		offerDropped: peerOffers.With("dropped"),
		hist: reg.Histogram("bschedd_request_duration_seconds",
			"End-to-end service time of successful compile requests.", nil),
		stages: reg.HistogramVec("bschedd_stage_duration_seconds",
			"Latency by request stage: parse, lookup, disk, peer, queue, coalesced, compile, deps, weights, schedule, regalloc. Each sample is also its stage's span on a traced request.",
			nil, "stage"),
		shedSojourn:   adm.With("shed_sojourn"),
		shedFull:      adm.With("shed_full"),
		quotaRejected: adm.With("quota"),
		infeasible:    adm.With("deadline_infeasible"),
		queueReqs: reg.CounterVec("bschedd_queue_requests_total",
			"Compilations enqueued by priority class (interactive, batch).",
			"priority"),
		tenantReqs: reg.CounterVec("bschedd_tenant_requests_total",
			"POST /v1/compile requests by tenant (X-Tenant header; \"default\" for anonymous traffic, \"_other\" past the label-cardinality bound).",
			"tenant"),
		tenantRejects: reg.CounterVec("bschedd_tenant_rejected_total",
			"Requests refused with 429 because the tenant's token bucket was empty.",
			"tenant"),
		profileCaptures: reg.CounterVec("bschedd_profile_captures_total",
			"Continuous-profiling captures by kind (cpu, heap) and trigger reason (periodic, breaker_open, shed_burst). All zero without -profile-dir.",
			"kind", "reason"),
		tenantCounters: make(map[string]*tenantCounters),
	}
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
