// Package server is the HTTP frontend of the bschedd daemon: it turns
// the compile/cache/coalesce kernel (bsched/internal/engine) into a
// long-lived concurrent compilation service, and — with Config.Peers
// set — into one node of a consistent-hash fleet (bsched/internal/
// cluster, docs/CLUSTER.md).
//
// Architecture, in one request's lifetime. The unit of caching,
// single-flight, persistence and peer exchange is the *block*
// (docs/CACHE-KEYS.md): a program request fans out into one cache
// dispatch per block, and the program response is assembled at the edge
// from the per-block results.
//
//	POST /v1/compile
//	   ├─ decode + validate + parse (in the handler goroutine)
//	   ├─ per block: content-addressed lookup,
//	   │    Key{block fingerprint, options fingerprint}
//	   │    ├─ completed entry  → memory hit for this block
//	   │    ├─ in-flight entry  → coalesce: wait on that block's leader,
//	   │    │                     bounded by this request's own deadline
//	   │    └─ absent           → leader: probe the persistent cache,
//	   │         ├─ valid disk record → disk hit: decode, complete the
//	   │         │                      entry (no compilation)
//	   │         ├─ foreign-owned key → probe the ring owner under a
//	   │         │    strict budget; a peer hit completes the entry,
//	   │         │    any peer failure falls back to a local compile
//	   │         │    — never a client error
//	   │         └─ none              → enqueue one per-block job
//	   ├─ bounded queue, fixed worker pool — the queue full is an explicit
//	   │    503 + Retry-After (backpressure), never an unbounded goroutine
//	   ├─ workers compile each missed block under the request deadline
//	   │    and budget tier, publishing its entry for every waiter
//	   └─ the handler awaits its pending blocks and assembles the
//	        program response in program order
//
// POST /v1/compile/batch accepts many programs at once and streams
// per-block results back as NDJSON as each block completes (batch.go),
// so a client sees early blocks before the slowest one finishes.
//
// The cache is sharded and LRU-bounded; single-flight deduplication is
// built into the lookup, so N concurrent requests for the same block
// cost exactly one compilation — including across different programs
// that share blocks. With Config.CacheDir set, a write-behind
// persistent layer (checksummed append-only segments, replayed at
// startup) sits under the memory cache, so a restarted daemon serves
// previously compiled blocks warm — see docs/SERVER.md, "Persistent
// cache". All of that lives in internal/engine; this package owns HTTP,
// the metrics registry, tenant quotas, tracing and logging, plus the
// peer protocol endpoints (GET /v1/peer/lookup/{key}, PUT
// /v1/peer/offer/{key}) the cluster layer speaks. docs/API.md is the
// complete HTTP surface reference.
//
// Observability (see docs/OBSERVABILITY.md for the full catalog): every
// counter, gauge and latency histogram lives in an internal/obs
// registry. GET /metrics renders it in Prometheus text exposition
// format; GET /stats serves the same instruments as a JSON snapshot
// (p50/p99 plus per-stage and per-tier latency breakdowns); GET
// /healthz is a liveness probe that also reports fleet degradation.
// Per-stage timings cover the whole request path — parse, cache lookup,
// queue wait, worker-side compile — and, through the engine's
// compile.Options.SpanObserver, the pipeline stages inside a
// compilation (deps, weights, schedule, regalloc). When Config.Logger
// is set, every request additionally emits one structured log line
// carrying a process-unique request ID (also returned in the
// X-Request-ID response header).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bsched/internal/admission"
	"bsched/internal/chaos"
	"bsched/internal/cluster"
	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/ir"
	"bsched/internal/obs"
	"bsched/internal/obs/profiler"
)

// Config sizes the service. The zero value is a sensible default.
type Config struct {
	// Workers is the size of the compilation worker pool. Zero means
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted
	// compilations. A full queue rejects new work with 503 + Retry-After.
	// Zero means engine.DefaultQueueDepth.
	QueueDepth int
	// CacheCapacity bounds the schedule cache, in entries. Zero means
	// engine.DefaultCacheCapacity; negative disables caching (and with it
	// single-flight coalescing).
	CacheCapacity int
	// CacheShards splits the cache to keep lock hold times short. Zero
	// means engine.DefaultCacheShards.
	CacheShards int
	// CacheDir, when non-empty, enables the write-behind persistent
	// schedule cache under this directory: cacheable compilations are
	// appended to checksummed segment files by a background flusher, and
	// on startup the segments are replayed so a restarted daemon serves
	// previously compiled programs from disk instead of recompiling them
	// (docs/SERVER.md, "Persistent cache"). Empty disables persistence.
	CacheDir string
	// CacheMaxBytes bounds the persistent cache on disk; past it,
	// compaction drops the coldest keys. Zero means
	// engine.DefaultCacheMaxBytes.
	CacheMaxBytes int64
	// MaxRequestBytes bounds a request body. Zero means DefaultMaxRequestBytes.
	MaxRequestBytes int64
	// DefaultTimeout is the per-compilation deadline when the request
	// does not carry one; MaxTimeout clamps request-supplied deadlines.
	// Zeros mean DefaultCompileTimeout / MaxCompileTimeout.
	DefaultTimeout time.Duration
	// MaxTimeout is the upper clamp on request-supplied deadlines.
	MaxTimeout time.Duration
	// Logger, when non-nil, receives one structured line per HTTP
	// request (event "http": request ID, method, path, status, duration,
	// response bytes, trace ID, plus cache disposition / tier /
	// fingerprint for compiles). Nil disables request logging.
	Logger *obs.Logger
	// TraceCapacity bounds the in-memory store of completed request
	// traces (tail-based retention: errors and degradations always kept,
	// plus the slowest tail; the rest sampled — see internal/obs). Zero
	// means obs.DefaultTraceCapacity; negative disables tracing.
	TraceCapacity int
	// TraceSampleEvery keeps 1 in N healthy fast traces. Zero means
	// obs.DefaultTraceSampleEvery.
	TraceSampleEvery int
	// InteractiveWeight is the interactive:batch service ratio when both
	// priority classes are backlogged (batch is guaranteed 1/(weight+1)
	// of the service rate, so it never starves). Zero means
	// admission.DefaultInteractiveWeight.
	InteractiveWeight int
	// CoDelTarget / CoDelInterval tune the admission queue's sojourn
	// controller: sojourns above target for a full interval start
	// shedding newest arrivals before the queue fills. Zeros mean the
	// admission defaults; a negative target disables sojourn shedding
	// (the hard depth bound remains).
	CoDelTarget   time.Duration
	CoDelInterval time.Duration
	// TenantRate / TenantBurst size the per-tenant token buckets keyed
	// by the X-Tenant header. TenantRate is tokens (requests) per second;
	// zero disables quotas entirely. TenantBurst zero means
	// max(TenantRate, 1).
	TenantRate  float64
	TenantBurst float64
	// BreakerThreshold / BreakerCooldown tune the disk-cache circuit
	// breaker (consecutive I/O failures to trip; time open before a
	// half-open probe). Zeros mean the admission defaults.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Chaos, when non-nil, is the fault-injection seam (-chaos flag):
	// slow-compile and latency-spike delays plus disk-error faults for
	// exercising the breaker. Nil in production.
	Chaos *chaos.Injector
	// ForcePolicy, when non-empty, overrides every request's scheduling
	// policy (-policy flag): a registered portfolio name or "auto" (New
	// rejects anything else). The override lands before options
	// validation and fingerprinting, so cache keys reflect the policy
	// actually used, not the one requested.
	ForcePolicy string

	// Peers, when non-empty, joins this daemon to a fleet: the listed
	// base URLs plus SelfURL form a consistent-hash ring over cache keys
	// (docs/CLUSTER.md). Empty runs a standalone node whose behavior is
	// identical to a build without the cluster layer.
	Peers []string
	// SelfURL is this node's advertised base URL — its identity on the
	// ring. Required when Peers is non-empty; peers must list exactly
	// this string for the fleet to agree on ownership.
	SelfURL string
	// RingReplicas is the virtual-node count per node on the ring. Zero
	// means cluster.DefaultReplicas.
	RingReplicas int
	// PeerProbeTimeout bounds one peer lookup round trip; a probe that
	// misses it falls back to a local compile. Zero means
	// cluster.DefaultProbeTimeout.
	PeerProbeTimeout time.Duration

	// ProfileDir, when non-empty, enables continuous profiling: periodic
	// and incident-triggered (breaker-open, shed-burst) CPU/heap pprof
	// profiles captured into a bounded on-disk ring under this directory,
	// indexed by GET /v1/profiles. Empty disables profiling.
	ProfileDir string
	// ProfileInterval separates periodic captures; zero means
	// profiler.DefaultInterval, negative disables the periodic loop
	// (incident triggers still capture).
	ProfileInterval time.Duration
	// ProfileCPUDuration is how long each CPU profile records; zero
	// means profiler.DefaultCPUDuration.
	ProfileCPUDuration time.Duration
}

// Defaults for Config's HTTP-side zero fields. The queue and cache
// sizing defaults are the engine's (engine.DefaultQueueDepth and
// friends), applied by engine.New.
const (
	// DefaultMaxRequestBytes caps the request body when
	// Config.MaxRequestBytes is zero.
	DefaultMaxRequestBytes = 1 << 20
	// DefaultCompileTimeout is the per-compilation deadline when the
	// request does not supply one.
	DefaultCompileTimeout = 10 * time.Second
	// MaxCompileTimeout is the upper clamp on request-supplied deadlines.
	MaxCompileTimeout = 60 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = DefaultCompileTimeout
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = MaxCompileTimeout
	}
	return c
}

// Sentinel failures an entry can complete with, plus the per-request
// deadline expiry (which never fails a shared entry). Queue rejections
// surface as admission.ErrShed / admission.ErrFull; errBusy is the
// generic queue-rejection failure coalesced waiters observe. The
// engine fails queued entries with engine.ErrShutdown at Close, and the
// handlers map it to 503 like these.
var (
	errBusy       = errors.New("compilation queue full")
	errDeadline   = errors.New("request deadline exceeded awaiting compilation")
	errInfeasible = errors.New("deadline below the current compile-time estimate for this tier")
)

// Server is the compilation service. Create with New, serve via
// Handler, stop with Close. The compile/cache/queue kernel lives in
// s.eng; the Server owns everything HTTP-shaped around it.
type Server struct {
	cfg      Config
	eng      *engine.Engine
	cluster  *cluster.Client  // nil without Config.Peers
	quota    *admission.Quota // nil when Config.TenantRate == 0
	stats    *Stats
	log      *obs.Logger
	tracer   *obs.Tracer        // nil when Config.TraceCapacity < 0
	profiler *profiler.Profiler // nil without Config.ProfileDir
	start    time.Time

	// compileFn is the compilation the engine's workers run; tests
	// substitute it to count invocations and to block the pool at will.
	// The engine reads it through a closure at call time, so assigning
	// the field after New (before traffic) takes effect.
	compileFn func(context.Context, *ir.Program, compile.Options) (*compile.Result, error)
}

// New builds the service and starts its worker pool. The failure modes
// are an unknown Config.ForcePolicy, an unusable persistent-cache
// directory (Config.CacheDir) and an inconsistent cluster config (Peers
// without SelfURL): corrupt cache *data* never fails startup — damaged
// records are counted and skipped during replay.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// Validated once here, by the same rule a request's policy option
	// meets: a bad override would otherwise turn every compile into a 400
	// that blames the client.
	if _, err := (&RequestOptions{Policy: cfg.ForcePolicy}).compileOptions(); err != nil {
		return nil, fmt.Errorf("force policy: %w", err)
	}
	s := &Server{
		cfg: cfg,
		quota: admission.NewQuota(admission.QuotaConfig{
			Rate:  cfg.TenantRate,
			Burst: cfg.TenantBurst,
		}),
		stats:     newStats(),
		log:       cfg.Logger,
		start:     time.Now(),
		compileFn: compile.Run,
	}
	if len(cfg.Peers) > 0 {
		cl, err := cluster.New(cluster.Config{
			Self:         cfg.SelfURL,
			Peers:        cfg.Peers,
			Replicas:     cfg.RingReplicas,
			ProbeTimeout: cfg.PeerProbeTimeout,
			Metrics:      s.stats.clusterMetrics(),
		})
		if err != nil {
			return nil, err
		}
		s.cluster = cl
	}
	if cfg.ProfileDir != "" {
		p, err := profiler.New(profiler.Config{
			Dir:         cfg.ProfileDir,
			Interval:    cfg.ProfileInterval,
			CPUDuration: cfg.ProfileCPUDuration,
			OnCapture: func(kind, reason string) {
				s.stats.profileCaptures.With(kind, reason).Inc()
			},
			Logf: func(format string, args ...any) {
				if s.log != nil {
					s.log.Log("profiler", "msg", fmt.Sprintf(format, args...))
				}
			},
		})
		if err != nil {
			if s.cluster != nil {
				s.cluster.Close()
			}
			return nil, err
		}
		s.profiler = p
		p.Start()
	}
	ecfg := engine.Config{
		Workers:           cfg.Workers,
		QueueDepth:        cfg.QueueDepth,
		CacheCapacity:     cfg.CacheCapacity,
		CacheShards:       cfg.CacheShards,
		CacheDir:          cfg.CacheDir,
		CacheMaxBytes:     cfg.CacheMaxBytes,
		InteractiveWeight: cfg.InteractiveWeight,
		CoDelTarget:       cfg.CoDelTarget,
		CoDelInterval:     cfg.CoDelInterval,
		BreakerThreshold:  cfg.BreakerThreshold,
		BreakerCooldown:   cfg.BreakerCooldown,
		Chaos:             cfg.Chaos,
		DiskMetrics:       s.stats.disk,
		ObserveStage:      s.stats.observeStage,
		ObserveTier: func(tier string, d time.Duration) {
			s.stats.tiers.With(tier).ObserveDuration(d)
		},
		OnDegradations: func(n int) { s.stats.degradations.Add(int64(n)) },
		ObservePolicy:  s.stats.observePolicy,
		OnBreakerTransition: func(from, to admission.BreakerState) {
			switch {
			case to == admission.BreakerOpen:
				s.stats.breakerTrip.Inc()
				// An opening breaker is an incident: capture a profile of
				// the moment (rate-limited by the profiler's cooldown).
				s.profiler.Trigger("breaker-open")
			case to == admission.BreakerHalfOpen:
				s.stats.breakerProbe.Inc()
			case to == admission.BreakerClosed && from == admission.BreakerHalfOpen:
				s.stats.breakerClose.Inc()
			}
		},
		CompileFn: func(ctx context.Context, b *ir.Block, o compile.Options) (*compile.BlockResult, error) {
			// Bridge the engine's per-block unit of work onto the
			// program-level compileFn seam (tests substitute s.compileFn to
			// gate the pool or count whole compilations): wrap the block in
			// a one-block program, compile, and unwrap.
			p := &ir.Program{Funcs: []*ir.Func{{Blocks: []*ir.Block{b}}}}
			res, err := s.compileFn(ctx, p, o)
			if err != nil {
				return nil, err
			}
			if len(res.Blocks) != 1 {
				return nil, fmt.Errorf("block compile returned %d block results", len(res.Blocks))
			}
			br := res.Blocks[0]
			// The seam may append program-level degradations of its own
			// (e.g. deadline events); for a one-block program they are this
			// block's degradations.
			br.Degradations = res.Degradations
			return br, nil
		},
	}
	if s.cluster != nil {
		// Assigned only when non-nil: a typed-nil *cluster.Client in the
		// interface field would defeat the engine's Peers == nil check.
		ecfg.Peers = s.cluster
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		if s.cluster != nil {
			s.cluster.Close()
		}
		s.profiler.Close()
		return nil, err
	}
	s.eng = eng
	if cfg.TraceCapacity >= 0 {
		s.tracer = obs.NewTracer(obs.NewTraceStore(cfg.TraceCapacity, cfg.TraceSampleEvery))
	}
	// Gauges are function-backed: sampled at scrape time from the state
	// the engine owns, so they can never drift from the truth.
	reg := s.stats.reg
	reg.Gauge("bschedd_queue_depth",
		"Accepted-but-unstarted compilations currently waiting, summed across both priority classes.",
		func() float64 { return float64(s.eng.QueueLen()) })
	reg.Gauge("bschedd_queue_capacity",
		"Capacity of the admission queue: per-class depth (-queue) times the two priority classes.",
		func() float64 { return float64(s.eng.QueueCapacity()) })
	reg.Gauge("bschedd_retry_after_seconds",
		"The adaptive Retry-After a 503 rejection would carry right now, from the admission queue's drain-rate estimate.",
		func() float64 { return float64(s.eng.RetryAfterSeconds()) })
	reg.Gauge("bschedd_breaker_state",
		"Disk-cache circuit-breaker position: 0 closed, 1 open, 2 half-open.",
		func() float64 { return float64(s.eng.BreakerState()) })
	reg.Gauge("bschedd_quota_tenants",
		"Tenant token buckets currently tracked; 0 with quotas disabled (-tenant-rate 0).",
		func() float64 { return float64(s.quota.Tenants()) })
	reg.Gauge("bschedd_workers",
		"Size of the compilation worker pool (-workers).",
		func() float64 { return float64(cfg.Workers) })
	reg.Gauge("bschedd_cache_entries",
		"Entries resident in the schedule cache across all shards.",
		func() float64 { return float64(s.eng.CacheLen()) })
	reg.Gauge("bschedd_uptime_seconds",
		"Seconds since the service started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.Gauge("bschedd_traces_retained",
		"Completed request traces currently retained by the tail-based sampler.",
		func() float64 { return float64(s.tracer.Store().Len()) })
	reg.Gauge("bschedd_diskcache_entries",
		"Records currently indexed (servable) in the persistent schedule cache; 0 without -cache-dir.",
		func() float64 { return float64(s.eng.DiskEntries()) })
	reg.Gauge("bschedd_diskcache_bytes",
		"Bytes of live (indexed) records in the persistent schedule cache; 0 without -cache-dir.",
		func() float64 { return float64(s.eng.DiskBytes()) })
	reg.Gauge("bschedd_diskcache_warm_entries",
		"Records indexed from segment replay when this process started — the warm-start figure; 0 without -cache-dir.",
		func() float64 { return float64(s.eng.DiskWarmEntries()) })
	reg.Gauge("bschedd_profiles_retained",
		"Profiles currently held in the continuous-profiling on-disk ring; 0 without -profile-dir.",
		func() float64 { return float64(s.profiler.Len()) })
	reg.Gauge("bschedd_peer_ring_nodes",
		"Real nodes on the consistent-hash ring this node places keys over; 1 for a standalone daemon (no -peers).",
		func() float64 {
			if s.cluster == nil {
				return 1
			}
			return float64(s.cluster.RingNodes())
		})
	registerRuntimeMetrics(reg)
	return s, nil
}

// Close stops the engine (worker pool, queued jobs failed with a
// shutdown error, persistent cache flushed) and the cluster client's
// offer drain. Safe to call twice.
func (s *Server) Close() {
	s.eng.Close()
	if s.cluster != nil {
		s.cluster.Close()
	}
	s.profiler.Close()
}

// Handler returns the service's HTTP routes, wrapped in the
// request-ID/logging middleware. The peer endpoints are always
// registered — a standalone node answers peer lookups from its own
// cache, which keeps the protocol testable without a fleet.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", s.handleCompile)
	mux.HandleFunc("/v1/compile/batch", s.handleCompileBatch)
	mux.HandleFunc("/v1/traces", s.handleTraces)
	mux.HandleFunc("/v1/traces/", s.handleTraceByID)
	mux.HandleFunc("/v1/peer/lookup/", s.handlePeerLookup)
	mux.HandleFunc("/v1/peer/offer/", s.handlePeerOffer)
	mux.HandleFunc("/v1/peer/trace/", s.handlePeerTrace)
	mux.HandleFunc("/v1/fleet/stats", s.handleFleetStats)
	mux.HandleFunc("/v1/fleet/metrics", s.handleFleetMetrics)
	mux.HandleFunc("/v1/profiles", s.handleProfiles)
	mux.HandleFunc("/v1/profiles/", s.handleProfileByName)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/metrics", s.stats.reg.Handler())
	return s.logged(mux)
}

// requestNote accumulates handler-specific fields for the access-log
// line; it rides the request context so handleCompile can annotate the
// line the middleware emits.
type requestNote struct{ kv []any }

type noteKey struct{}

// note appends fields to the request's access-log line, if logging is
// on for this request.
func note(r *http.Request, kv ...any) {
	if n, ok := r.Context().Value(noteKey{}).(*requestNote); ok {
		n.kv = append(n.kv, kv...)
	}
}

// statusWriter captures the response status and size for the access
// log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// Flush forwards to the underlying writer so streaming handlers (the
// NDJSON batch endpoint) can push each frame to the client immediately;
// without this the middleware wrapper would hide the connection's
// http.Flusher and frames would sit in net/http's buffer.
func (w *statusWriter) Flush() {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logged is the per-request middleware: it stamps every request with a
// process-unique X-Request-ID, opens the request's root trace span
// (honoring an incoming W3C traceparent header, minting a fresh trace
// id otherwise) and returns the trace id in X-Trace-ID, emits one
// structured "http" event per request when a logger is configured, and
// converts handler panics into logged 500s (without it, a recovered
// panic would ride statusWriter's 200-by-default into the access log).
func (s *Server) logged(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.RequestID()
		w.Header().Set("X-Request-ID", id)
		tr := s.tracer.Start(r.Method+" "+r.URL.Path, id, r.Header.Get("traceparent"))
		n := &requestNote{}
		ctx := context.WithValue(r.Context(), noteKey{}, n)
		if tr != nil {
			w.Header().Set("X-Trace-ID", tr.ID.String())
			ctx = obs.ContextWithTrace(ctx, tr)
		}
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			p := recover()
			if p != nil && p != http.ErrAbortHandler {
				// Respond 500 if nothing was written yet; a panic after an
				// explicit WriteHeader keeps the status the client actually
				// saw, with the panic recorded alongside it.
				if sw.code == 0 {
					writeError(sw, http.StatusInternalServerError,
						&ErrorResponse{Error: "internal server error"})
				}
				n.kv = append(n.kv, "panic", fmt.Sprint(p))
				tr.SetError()
			}
			status := sw.status()
			if tr != nil {
				tr.Root().SetAttr("status", fmt.Sprint(status))
				if status >= 400 {
					tr.SetError()
				}
				s.tracer.Finish(tr)
			}
			if s.log != nil {
				kv := []any{
					"id", id, "method", r.Method, "path", r.URL.Path,
					"status", status, "dur_ms", time.Since(start), "bytes", sw.bytes,
				}
				if tr != nil {
					kv = append(kv, "trace", tr.ID.String())
				}
				s.log.Log("http", append(kv, n.kv...)...)
			}
			if p == http.ErrAbortHandler {
				panic(p) // preserve net/http's deliberate-abort contract
			}
		}()
		h.ServeHTTP(sw, r)
	})
}

// diskServe completes a block leader's entry from the persistent
// cache, when there is one and it holds a valid record for the key. The
// served response also becomes the completed in-memory entry, so
// subsequent requests for the block are plain memory hits; the root
// span gets a disk-hit event so traces distinguish the dispositions
// (memory hit, disk hit, peer hit, miss).
func (s *Server) diskServe(key engine.Key, e *engine.Entry, tr *obs.Trace) (*engine.BlockResponse, bool) {
	if s.cfg.CacheDir == "" {
		return nil, false
	}
	span := tr.StartSpan(nil, "disk-lookup")
	resp, ok := s.eng.DiskGet(key)
	span.End()
	if !ok {
		return nil, false
	}
	tr.Root().Event("disk-hit")
	e.Complete(resp, nil)
	return resp, true
}

// peerServe probes a foreign block key's ring owner and, on a hit,
// completes the leader's entry with the peer's response — one round
// trip instead of a compilation. Every non-hit outcome (miss,
// breaker-skipped, transport error, budget exceeded) returns false and
// the caller compiles locally; a peer can slow a request by at most the
// probe budget, never fail it.
func (s *Server) peerServe(key engine.Key, e *engine.Entry, r *http.Request, tr *obs.Trace) (*engine.BlockResponse, bool) {
	if s.cluster == nil {
		return nil, false
	}
	owner, self := s.cluster.Owner(key)
	if self {
		return nil, false
	}
	span := tr.StartSpan(nil, "peer-probe")
	span.SetAttr("owner", owner)
	traceparent := ""
	if tr != nil {
		// The probe span is the parent of whatever the owner records, so
		// the two nodes' spans assemble into one cross-node tree.
		traceparent = obs.FormatTraceparent(tr.ID, span.ID)
	}
	resp, outcome := s.cluster.Probe(r.Context(), owner, key, traceparent)
	span.SetAttr("outcome", outcome.String())
	if resp == nil {
		span.End()
		return nil, false
	}
	span.End()
	tr.Root().Event("peer-hit")
	e.Complete(resp, nil)
	return resp, true
}

// blockDisposition says how one block of a request resolved against the
// engine cache.
type blockDisposition int

const (
	blockHit       blockDisposition = iota // completed in-memory entry
	blockDisk                              // decoded from the persistent layer
	blockPeer                              // served by the block's ring owner
	blockEnqueued                          // this request is the block's compile leader
	blockCoalesced                         // joined another request's in-flight compile
)

// dispatchBlock resolves one block of a request against the engine:
// hit/disk/peer resolve immediately (resp non-nil); enqueued and
// coalesced return the entry the caller awaits. A non-nil error means
// admission refused the block (infeasible deadline, sojourn shed, queue
// full) — the entry is already failed and removed, and the caller owns
// the HTTP error. Blocks the caller enqueued earlier keep compiling and
// warm the cache regardless.
func (s *Server) dispatchBlock(r *http.Request, tr *obs.Trace, b *ir.Block, key engine.Key,
	opts compile.Options, deadline time.Duration, started time.Time,
	tier string, prio admission.Priority) (*engine.BlockResponse, *engine.Entry, blockDisposition, error) {
	e, leader := s.eng.Lookup(key)
	if !leader {
		if e.Completed() {
			s.stats.blockHits.Inc()
			return e.Resp, e, blockHit, nil
		}
		s.stats.blockCoalesced.Inc()
		return nil, e, blockCoalesced, nil
	}
	// Memory miss under this request's single-flight leadership for the
	// block: probe the persistent layer, then the ring owner, before
	// paying for a compilation. N concurrent requests needing the same
	// block still cost one disk read / one probe / one compile.
	if resp, ok := s.diskServe(key, e, tr); ok {
		s.stats.blockDisk.Inc()
		return resp, e, blockDisk, nil
	}
	if resp, ok := s.peerServe(key, e, r, tr); ok {
		s.stats.blockPeer.Inc()
		return resp, e, blockPeer, nil
	}
	s.stats.blockMisses.Inc()
	// Deadline-aware admission, per block: when the tier's observed p99
	// compile estimate already exceeds the request's remaining deadline,
	// queueing would only burn a worker on a result nobody waits for.
	// The estimator reports zero (no opinion) until it has enough
	// samples, so cold tiers always admit.
	if est := s.eng.Estimate(tier, len(b.Instrs)); est > 0 && est > deadline-time.Since(started) {
		s.stats.infeasible.Inc()
		tr.Root().Event("503-infeasible")
		tr.Root().SetAttr("estimate_ms", fmt.Sprint(est.Milliseconds()))
		s.eng.Remove(key, e)
		e.Complete(nil, errInfeasible)
		return nil, e, blockEnqueued, errInfeasible
	}
	j := &engine.Job{Block: b, Opts: opts, Timeout: deadline, Key: key, E: e,
		Tier: tier, Priority: prio, Instrs: len(b.Instrs),
		Tr: tr, QueueSpan: tr.StartSpan(nil, "queue-wait")}
	if err := s.eng.Enqueue(j); err != nil {
		// Rejected at admission: CoDel shedding (the queue has room but
		// accepted work is already waiting past target) or the hard depth
		// bound. Either way, fail the entry so coalesced requests that
		// raced in behind us reject too instead of hanging — and record
		// the queue-wait span *and* histogram for the shed block, so
		// shedding is visible in traces and /stats rather than only in
		// requests that eventually ran.
		s.stats.stages.With(stageQueue).ObserveDuration(time.Since(j.Enqueued))
		j.QueueSpan.EndErr(err)
		if errors.Is(err, admission.ErrShed) {
			s.stats.shedSojourn.Inc()
			tr.Root().Event("503-shed")
		} else {
			s.stats.shedFull.Inc()
			tr.Root().Event("503-backpressure")
		}
		// A shed storm (a burst of these events inside the profiler's
		// window) captures a profile of the overloaded moment.
		s.profiler.Event("shed-burst")
		s.eng.Remove(key, e)
		e.Complete(nil, errBusy)
		return nil, e, blockEnqueued, err
	}
	s.stats.queueReqs.With(prio.String()).Inc()
	return nil, e, blockEnqueued, nil
}

// Stats returns a point-in-time snapshot of the service counters.
func (s *Server) Stats() Snapshot {
	snap := s.stats.snapshot()
	q := s.eng.QueueSnapshot()
	snap.QueueDepth = q.Interactive + q.Batch
	snap.QueueCapacity = s.eng.QueueCapacity()
	snap.QueueInteractive = q.Interactive
	snap.QueueBatch = q.Batch
	snap.RetryAfterSeconds = q.RetryAfterSeconds
	snap.BreakerState = s.eng.BreakerState().String()
	snap.BreakerTrips = s.eng.BreakerTrips()
	snap.QuotaTenants = s.quota.Tenants()
	snap.Workers = s.cfg.Workers
	snap.CacheEntries = s.eng.CacheLen()
	snap.TracesRetained = s.tracer.Store().Len()
	snap.DiskEntries = s.eng.DiskEntries()
	snap.DiskBytes = s.eng.DiskBytes()
	snap.DiskWarmEntries = s.eng.DiskWarmEntries()
	if s.cluster != nil {
		snap.Cluster = s.stats.clusterSummary(s.cluster)
	}
	return snap
}

// handleHealthz is the liveness probe. A healthy standalone daemon
// answers exactly as it always has; a fleet node additionally reports
// every peer's reachability (the local breaker view) under "peers",
// and the degraded field (with reasons naming the peers that are down)
// appears only when the disk circuit breaker is open or more than half
// of the fleet's peers are unreachable — "up, but don't route new
// traffic here first".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	}
	var reasons []string
	if s.eng.BreakerState() == admission.BreakerOpen {
		reasons = append(reasons, "disk-cache circuit breaker open")
	}
	if s.cluster != nil {
		// Per-peer reachability detail, from the same breaker view the
		// fleet endpoints and bschedtop read — not just the aggregate
		// ">half unreachable" judgment.
		health := s.cluster.Health()
		body["peers"] = health
		var down []string
		for _, ph := range health {
			if !ph.Reachable {
				down = append(down, ph.URL)
			}
		}
		if 2*len(down) > len(health) {
			reasons = append(reasons, fmt.Sprintf("%d of %d peers unreachable: %s",
				len(down), len(health), strings.Join(down, ", ")))
		}
	}
	if len(reasons) > 0 {
		body["degraded"] = true
		body["reasons"] = reasons
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// timeout clamps a request's deadline to the configured range.
func (s *Server) timeout(millis int64) time.Duration {
	d := time.Duration(millis) * time.Millisecond
	if d <= 0 {
		return s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, &ErrorResponse{Error: "POST only"})
		return
	}
	s.cfg.Chaos.Delay(chaos.LatencySpike)
	started := time.Now()
	tr := obs.TraceFrom(r.Context())

	// Tenant quota, before the body is even read: a tenant over its
	// bucket costs the daemon a header lookup and a counter bump, not a
	// megabyte of JSON decoding.
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = admission.DefaultTenant
	}
	tc := s.stats.tenant(tenant)
	tc.requests.Inc()
	note(r, "tenant", tenant)
	if d := s.quota.Allow(tenant); !d.OK {
		tc.rejected.Inc()
		s.stats.quotaRejected.Inc()
		s.stats.rejected.Add(1)
		tr.Root().Event("429-quota")
		retry := d.RetryAfterSeconds()
		h := w.Header()
		h.Set("X-RateLimit-Limit", strconv.Itoa(d.Limit))
		h.Set("X-RateLimit-Remaining", strconv.Itoa(d.Remaining))
		h.Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, &ErrorResponse{
			Error:             fmt.Sprintf("tenant %q over quota (%d req/s sustained)", tenant, int(s.cfg.TenantRate)),
			RetryAfterSeconds: retry,
		})
		return
	} else if d.Remaining >= 0 {
		h := w.Header()
		h.Set("X-RateLimit-Limit", strconv.Itoa(d.Limit))
		h.Set("X-RateLimit-Remaining", strconv.Itoa(d.Remaining))
	}

	var req CompileRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		s.stats.clientErrors.Add(1)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, &ErrorResponse{Error: fmt.Sprintf("decode request: %v", err)})
		return
	}
	if s.cfg.ForcePolicy != "" {
		req.Options.Policy = s.cfg.ForcePolicy
	}
	opts, err := req.Options.compileOptions()
	if err != nil {
		s.stats.clientErrors.Add(1)
		writeError(w, http.StatusBadRequest, &ErrorResponse{Error: fmt.Sprintf("options: %v", err), Stage: "options"})
		return
	}
	// Priority class: X-Priority header first, body field as fallback.
	// Deliberately not part of the cache key — the schedule is identical
	// either way; only the queueing differs.
	prioTag := r.Header.Get("X-Priority")
	if prioTag == "" {
		prioTag = req.Priority
	}
	prio, err := admission.ParsePriority(prioTag)
	if err != nil {
		s.stats.clientErrors.Add(1)
		writeError(w, http.StatusBadRequest, &ErrorResponse{Error: fmt.Sprintf("priority: %v", err)})
		return
	}
	parseSpan := tr.StartSpan(nil, "parse")
	parseStart := time.Now()
	prog, err := ir.Parse(req.Program)
	s.stats.stages.With(stageParse).ObserveDuration(time.Since(parseStart))
	if err != nil {
		parseSpan.EndErr(err)
		s.stats.clientErrors.Add(1)
		writeError(w, http.StatusBadRequest, &ErrorResponse{Error: fmt.Sprintf("parse program: %v", err), Stage: "parse"})
		return
	}
	parseSpan.End()

	s.stats.requests.Add(1)
	deadline := s.timeout(req.TimeoutMillis)
	opts.Parallelism = s.eng.BlockParallelism()
	tier := req.Options.Budget
	if tier == "" {
		tier = TierDefault
	}
	optsFP := req.Options.fingerprint()
	fp, blockFPs := prog.Fingerprints()
	progFP := fmt.Sprintf("%016x", fp)
	note(r, "fingerprint", progFP, "tier", tier, "priority", prio.String())
	root := tr.Root()
	root.SetAttr("fingerprint", progFP)
	root.SetAttr("tier", tier)
	root.SetAttr("priority", prio.String())

	// Fan the program out into one cache dispatch per block: each
	// block's fingerprint plus the options fingerprint is its own cache
	// key (docs/CACHE-KEYS.md), so hits, misses, single-flight
	// coalescing, disk records and peer exchange are all block-granular,
	// and two programs sharing blocks share their compilations.
	blocks := prog.Blocks()
	results := make([]*engine.BlockResponse, len(blocks))
	type pendingWait struct {
		idx int
		e   *engine.Entry
	}
	var waits []pendingWait
	var compiledAny, coalescedAny, diskAny, peerAny bool
	lookupSpan := tr.StartSpan(nil, "cache-lookup")
	lookupStart := time.Now()
	for i, b := range blocks {
		key := engine.Key{Block: blockFPs[i], Opts: optsFP}
		resp, e, disp, err := s.dispatchBlock(r, tr, b, key, opts, deadline, started, tier, prio)
		if err != nil {
			s.stats.stages.With(stageLookup).ObserveDuration(time.Since(lookupStart))
			lookupSpan.EndErr(err)
			s.respondError(w, err)
			return
		}
		switch disp {
		case blockHit:
			results[i] = resp
		case blockDisk:
			results[i] = resp
			diskAny = true
		case blockPeer:
			results[i] = resp
			peerAny = true
		case blockEnqueued:
			compiledAny = true
			waits = append(waits, pendingWait{i, e})
		case blockCoalesced:
			coalescedAny = true
			waits = append(waits, pendingWait{i, e})
		}
	}
	s.stats.stages.With(stageLookup).ObserveDuration(time.Since(lookupStart))
	lookupSpan.End()

	// The request-level cache disposition is the *worst* block's:
	// compiling anything makes the response a miss, else waiting on
	// another request's compile makes it coalesced, else a disk or peer
	// decode beats calling it a pure memory hit. A single-block program
	// reproduces the pre-batching program-granular accounting exactly.
	switch {
	case compiledAny:
		s.stats.cacheMisses.Add(1)
		note(r, "cache", "miss")
		root.Event("cache-miss")
	case coalescedAny:
		s.stats.coalesced.Add(1)
		note(r, "cache", "coalesced")
		root.Event("coalesced")
	case diskAny:
		note(r, "cache", "disk")
	case peerAny:
		note(r, "cache", "peer")
	default:
		s.stats.cacheHits.Add(1)
		note(r, "cache", "hit")
		root.Event("cache-hit")
	}
	cached := !compiledAny
	respCoalesced := coalescedAny && !compiledAny

	// A coalesced wait is bounded by this request's own clamped deadline,
	// not the leader's: a request asking for 100ms must not block for an
	// in-flight leader's 60s. Expiry responds 503 without failing the
	// shared entries — the compilations complete for everyone still
	// waiting. A request that is itself a leader for any block gets no
	// such timer: its jobs compile under its own deadline and degrade
	// rather than fail.
	var waitC <-chan time.Time
	var waitSpan *obs.Span
	if respCoalesced && len(waits) > 0 {
		wait := time.NewTimer(deadline - time.Since(started))
		defer wait.Stop()
		waitC = wait.C
		waitSpan = tr.StartSpan(nil, "coalesced-wait")
	}
	for _, p := range waits {
		select {
		case <-p.e.Done:
			if p.e.Err != nil {
				waitSpan.End()
				s.respondError(w, p.e.Err)
				return
			}
			results[p.idx] = p.e.Resp
		case <-waitC:
			waitSpan.EndErr(errDeadline)
			s.respondError(w, errDeadline)
			return
		case <-r.Context().Done():
			// Client gone; the compilations still complete and populate
			// the cache for the next asker. The leaders' compile and stage
			// spans keep appending to this trace after the root finishes —
			// the trace serializes that, and the late spans are simply
			// absent from the stored snapshot (best-effort).
			waitSpan.EndErr(r.Context().Err())
			s.stats.clientErrors.Add(1)
			return
		case <-s.eng.Done():
			waitSpan.EndErr(engine.ErrShutdown)
			s.respondError(w, engine.ErrShutdown)
			return
		}
	}
	waitSpan.End()
	s.respond(w, r, assembleResponse(prog, progFP, results, optsFP).Stamped(cached, respCoalesced, time.Since(started)))
}

// respond writes a 200 and records its service time. The histogram
// observation carries the request's trace id as an exemplar so a slow
// bucket can be chased to a concrete retained trace; a degraded
// compilation marks the trace so tail-based retention always keeps it.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, resp *CompileResponse) {
	s.stats.ok.Add(1)
	sec := resp.ServiceMillis / 1000 // histogram samples are seconds
	if tr := obs.TraceFrom(r.Context()); tr != nil {
		if len(resp.Degradations) > 0 {
			tr.SetDegraded()
		}
		s.stats.hist.ObserveExemplar(sec, tr.ID.String())
	} else {
		s.stats.hist.Observe(sec)
	}
	writeJSON(w, http.StatusOK, resp)
}

// respondError maps a failure to a status code and error body. Every
// 503 carries an adaptive Retry-After from the admission queue's
// drain-rate estimate — backlog × observed per-item drain interval,
// clamped — instead of a constant.
func (s *Server) respondError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errBusy), errors.Is(err, engine.ErrShutdown), errors.Is(err, errDeadline),
		errors.Is(err, errInfeasible), errors.Is(err, admission.ErrShed), errors.Is(err, admission.ErrFull):
		s.stats.rejected.Add(1)
		retry := s.eng.RetryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusServiceUnavailable, &ErrorResponse{Error: err.Error(), RetryAfterSeconds: retry})
	default:
		s.stats.compileErrors.Add(1)
		resp := &ErrorResponse{Error: err.Error()}
		var ce *compile.Error
		if errors.As(err, &ce) {
			resp.Stage = ce.Stage
			resp.Block = ce.Block
		}
		writeError(w, http.StatusUnprocessableEntity, resp)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the client hanging up mid-write is not our error
}

func writeError(w http.ResponseWriter, status int, e *ErrorResponse) {
	writeJSON(w, status, e)
}
