package engine

import (
	"bsched/internal/admission"
	"bsched/internal/obs"
	"bsched/internal/sched"
)

// metrics are the instruments only the engine updates. New registers
// them on Config.Registry whether or not a cache directory is set, so
// the catalog has one shape on every daemon; the disk families simply
// stay at zero without one.
type metrics struct {
	disk                      diskMetrics
	trips, probes, recoveries *obs.Counter      // bschedd_breaker_events_total{event}
	tiers                     *obs.HistogramVec // bschedd_compile_duration_seconds{tier}
	degradations              *obs.Counter      // bschedd_degradations_total
	policyBlocks              *obs.CounterVec   // bschedd_policy_blocks_total{policy}
	policyCycles              *obs.HistogramVec // bschedd_policy_cycles{policy}
	peerProbes                *obs.CounterVec   // bschedd_peer_probes_total{outcome}
}

// cycleBuckets are the bschedd_policy_cycles histogram bounds: schedule
// lengths are small integers (issue slots), so the default
// seconds-denominated latency buckets would collapse every sample into
// +Inf. Powers of two cover one-instruction blocks through the largest
// budget-bounded schedules.
var cycleBuckets = []float64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// newMetrics registers the engine's counters and histograms on reg. The
// peer probes family is registered without a fleet too, so the catalog
// does not depend on flags.
func newMetrics(reg *obs.Registry) *metrics {
	diskEvents := reg.CounterVec("bschedd_diskcache_events_total",
		"Persistent schedule-cache operations: hit (record served from disk after a memory miss), miss (no valid disk record either), write (record persisted) or evict (cold record dropped at compaction). All zero without -cache-dir.",
		"event")
	breaker := reg.CounterVec("bschedd_breaker_events_total",
		"Disk-cache circuit-breaker events: trip (opened), probe (half-open probe admitted), recover (probe succeeded, closed again) or reject (disk I/O skipped while open).",
		"event")
	m := &metrics{
		disk: diskMetrics{
			hits:      diskEvents.With("hit"),
			misses:    diskEvents.With("miss"),
			writes:    diskEvents.With("write"),
			evictions: diskEvents.With("evict"),
			loaded: reg.Counter("bschedd_diskcache_records_loaded_total",
				"Valid records indexed from persistent-cache segments during startup replay."),
			corrupt: reg.Counter("bschedd_diskcache_corrupt_records_total",
				"Torn or corrupt persistent-cache records skipped (at replay, on read, or at compaction) instead of being served."),
			stale: reg.Counter("bschedd_diskcache_stale_records_total",
				"Healthy records in the retired program-keyed on-disk format, skipped (not indexed) at replay; the affected programs recompile once and re-persist under block keys (docs/CACHE-KEYS.md)."),
			ioErrors: reg.Counter("bschedd_diskcache_io_errors_total",
				"Persistent-cache read/append failures at the I/O layer (as opposed to corrupt data) — the signal that trips the disk circuit breaker."),
			rejects: breaker.With("reject"),
		},
		trips:      breaker.With("trip"),
		probes:     breaker.With("probe"),
		recoveries: breaker.With("recover"),
		tiers: reg.HistogramVec("bschedd_compile_duration_seconds",
			"Worker-side compilation time by work-budget tier (small, default, large, unlimited).",
			nil, "tier"),
		degradations: reg.Counter("bschedd_degradations_total",
			"Degradation-ladder downgrade events across all compilations."),
		policyBlocks: reg.CounterVec("bschedd_policy_blocks_total",
			"Blocks compiled by scheduling policy (docs/POLICIES.md): the registered portfolio names. An \"auto\" request contributes under the policy the decision rule picked for the block, so the split shows what actually ran, not what was asked for.",
			"policy"),
		policyCycles: reg.HistogramVec("bschedd_policy_cycles",
			"Schedule length per compiled block, in issue slots (final instructions plus pass-1 starvation no-ops), by scheduling policy — the deterministic per-policy outcome estimate; cycle-accurate comparison lives in the offline differential harness.",
			cycleBuckets, "policy"),
		peerProbes: reg.CounterVec("bschedd_peer_probes_total",
			"Peer-cache lookups this node sent to ring owners, by outcome: hit (response reused, no local compile), miss (owner had nothing either), error (transport/protocol failure — feeds the peer's circuit breaker) or skip (breaker open or in-flight bound reached; compiled locally). All zero without -peers.",
			"outcome"),
	}
	// Every policy's series exists from startup, so both families render
	// the whole portfolio before its first compile.
	for _, name := range sched.PolicyNames() {
		m.policyBlocks.With(name)
		m.policyCycles.With(name)
	}
	for o := ProbeOutcomeHit; o <= ProbeOutcomeSkip; o++ {
		m.peerProbes.With(o.String())
	}
	return m
}

// registerGauges adds the gauges over the engine's queue, cache,
// breaker and disk to reg. They are sampled at scrape time from the
// state itself, so they cannot drift from it.
func (en *Engine) registerGauges(reg *obs.Registry) {
	reg.Gauge("bschedd_queue_depth",
		"Accepted-but-unstarted compilations currently waiting, summed across both priority classes.",
		func() float64 { return float64(en.adm.Len()) })
	reg.Gauge("bschedd_queue_capacity",
		"Capacity of the admission queue: per-class depth (-queue) times the two priority classes.",
		func() float64 { return float64(en.adm.Capacity()) })
	reg.Gauge("bschedd_retry_after_seconds",
		"The adaptive Retry-After a 503 rejection would carry right now, from the admission queue's drain-rate estimate.",
		func() float64 { return float64(en.adm.RetryAfterSeconds()) })
	reg.Gauge("bschedd_breaker_state",
		"Disk-cache circuit-breaker position: 0 closed, 1 open, 2 half-open.",
		func() float64 { return float64(en.breaker.State()) })
	reg.Gauge("bschedd_cache_entries",
		"Entries resident in the schedule cache across all shards.",
		func() float64 { return float64(en.cache.len()) })
	reg.Gauge("bschedd_diskcache_entries",
		"Records currently indexed (servable) in the persistent schedule cache; 0 without -cache-dir.",
		func() float64 { return float64(en.disk.entries()) })
	reg.Gauge("bschedd_diskcache_bytes",
		"Bytes of live (indexed) records in the persistent schedule cache; 0 without -cache-dir.",
		func() float64 { return float64(en.disk.bytes()) })
	reg.Gauge("bschedd_diskcache_warm_entries",
		"Records indexed from segment replay when this process started — the warm-start figure; 0 without -cache-dir.",
		func() float64 { return float64(en.disk.warmEntries()) })
}

// onBreakerTransition is the disk breaker's transition hook: it counts
// trips, probes and recoveries, and an opening breaker, an incident,
// asks the profiler for a capture of the moment (rate-limited by the
// profiler's cooldown).
func (en *Engine) onBreakerTransition(from, to admission.BreakerState) {
	switch {
	case to == admission.BreakerOpen:
		en.met.trips.Inc()
		en.cfg.Profiler.Trigger("breaker_open")
	case to == admission.BreakerHalfOpen:
		en.met.probes.Inc()
	case to == admission.BreakerClosed && from == admission.BreakerHalfOpen:
		en.met.recoveries.Inc()
	}
}
