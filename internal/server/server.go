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
// from the per-block results. Both compile endpoints run one request
// path: the front (method, tenant quota, decode), the per-program step
// (options, priority, parse, fingerprints, per-block dispatch) and the
// per-block await.
//
//	POST /v1/compile
//	   ├─ front: method check, tenant quota, size-limited decode
//	   ├─ per-program step: options + priority + parse
//	   ├─ per block: content-addressed lookup,
//	   │    Key{block fingerprint, options fingerprint}
//	   │    ├─ completed entry  → memory hit for this block
//	   │    ├─ in-flight entry  → coalesce: wait on that block's leader,
//	   │    │                     bounded by this program's own deadline
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
// POST /v1/compile/batch runs the same front and, per program, the same
// step and awaits, but streams per-block results back as NDJSON as each
// block completes (batch.go), so a client sees early blocks before the
// slowest one finishes.
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
// format; GET /stats serves the registry's snapshot, the same families
// as JSON data (bucket counts, not quantiles); GET /healthz is a
// liveness probe that also reports fleet degradation.
// Stages (parse, lookup, disk, peer, queue, coalesced, compile, and the
// compiler's deps, weights, schedule, regalloc via the engine's
// compile.Options.SpanObserver) are each timed once, as a stage
// histogram sample and its span (obs.Stage). When Config.Logger is set,
// every request additionally emits one structured log line carrying a
// process-unique request ID (also returned in the X-Request-ID response
// header).
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

	// compileFn is engine.Config.CompileFn: the engine's workers call it
	// once per block job. Tests substitute it to count invocations and to
	// block the pool at will; the engine reads it through a closure at
	// call time, so assigning the field after New (before traffic) takes
	// effect.
	compileFn func(context.Context, *ir.Block, compile.Options) (*compile.BlockResult, error)
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
		compileFn: compile.RunBlock,
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
		CacheDir:          cfg.CacheDir,
		CacheMaxBytes:     cfg.CacheMaxBytes,
		InteractiveWeight: cfg.InteractiveWeight,
		CoDelTarget:       cfg.CoDelTarget,
		CoDelInterval:     cfg.CoDelInterval,
		BreakerThreshold:  cfg.BreakerThreshold,
		BreakerCooldown:   cfg.BreakerCooldown,
		Chaos:             cfg.Chaos,
		DiskMetrics:       s.stats.disk,
		Stages:            s.stats.stages,
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
			return s.compileFn(ctx, b, o)
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

// diskGet is the disk stage: a persistent-cache probe, when there is a cache.
func (s *Server) diskGet(key engine.Key, tr *obs.Trace) (*engine.BlockResponse, bool) {
	if s.cfg.CacheDir == "" {
		return nil, false
	}
	defer s.stats.stages.StartStage(tr, nil, stageDisk).End(nil) // starts now, ends at return
	return s.eng.DiskGet(key)
}

// diskServe completes a block leader's entry from the persistent
// cache, when there is one and it holds a valid record for the key. The
// served response also becomes the completed in-memory entry, so
// subsequent requests for the block are plain memory hits; the root
// span gets a disk-hit event so traces distinguish the dispositions
// (memory hit, disk hit, peer hit, miss).
func (s *Server) diskServe(key engine.Key, e *engine.Entry, tr *obs.Trace) (*engine.BlockResponse, bool) {
	resp, ok := s.diskGet(key, tr)
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
	stage := s.stats.stages.StartStage(tr, nil, stagePeer)
	span := stage.Span()
	span.SetAttr("owner", owner)
	traceparent := ""
	if tr != nil {
		// The probe span is the parent of whatever the owner records, so
		// the two nodes' spans assemble into one cross-node tree.
		traceparent = obs.FormatTraceparent(tr.ID, span.ID)
	}
	resp, outcome := s.cluster.Probe(r.Context(), owner, key, traceparent)
	span.SetAttr("outcome", outcome.String())
	stage.End(nil)
	if resp == nil {
		return nil, false
	}
	tr.Root().Event("peer-hit")
	e.Complete(resp, nil)
	return resp, true
}

// dispatch resolves block i of p against the engine under key. A
// memory, disk or peer hit lands in p.blocks; an entry this request
// enqueued (as the block's leader) or joined (coalesced) lands in
// p.pending. A non-nil error means admission refused the block
// (infeasible deadline, sojourn shed, queue full): the entry is
// already failed and removed. Blocks enqueued earlier keep compiling
// and warm the cache regardless.
func (s *Server) dispatch(r *http.Request, tr *obs.Trace, p *program, i int, b *ir.Block, key engine.Key, opts compile.Options) error {
	e, leader := s.eng.Lookup(key)
	if !leader {
		if e.Completed() {
			s.stats.blockHits.Inc()
			p.blocks[i] = e.Resp
			return nil
		}
		s.stats.blockCoalesced.Inc()
		p.coalesced = true
		p.addPending(i, e, false)
		return nil
	}
	// Memory miss under this request's single-flight leadership for the
	// block: probe the persistent layer, then the ring owner, before
	// paying for a compilation. N concurrent requests needing the same
	// block still cost one disk read / one probe / one compile.
	if resp, ok := s.diskServe(key, e, tr); ok {
		s.stats.blockDisk.Inc()
		p.blocks[i], p.disk = resp, true
		return nil
	}
	if resp, ok := s.peerServe(key, e, r, tr); ok {
		s.stats.blockPeer.Inc()
		p.blocks[i], p.peer = resp, true
		return nil
	}
	s.stats.blockMisses.Inc()
	// Deadline-aware admission, per block: when the tier's observed p99
	// compile estimate already exceeds the request's remaining deadline,
	// queueing would only burn a worker on a result nobody waits for.
	// The estimator reports zero (no opinion) until it has enough
	// samples, so cold tiers always admit.
	if est := s.eng.Estimate(p.tier, len(b.Instrs)); est > 0 && est > p.deadline-time.Since(p.started) {
		s.stats.infeasible.Inc()
		tr.Root().Event("503-infeasible")
		tr.Root().SetAttr("estimate_ms", fmt.Sprint(est.Milliseconds()))
		s.eng.Remove(key, e)
		e.Complete(nil, errInfeasible)
		return errInfeasible
	}
	j := &engine.Job{Block: b, Opts: opts, Timeout: p.deadline, Key: key, E: e,
		Tier: p.tier, Priority: p.prio, Instrs: len(b.Instrs),
		Tr: tr, Queue: s.stats.stages.StartStage(tr, nil, engine.StageQueue)}
	if err := s.eng.Enqueue(j); err != nil {
		// Rejected at admission: CoDel shedding (the queue has room but
		// accepted work is already waiting past target) or the hard depth
		// bound. Either way, fail the entry so coalesced requests that
		// raced in behind us reject too instead of hanging — and end the
		// queue stage with the error, so shedding is visible in traces and
		// the stage histogram rather than only in requests that ran.
		j.Queue.End(err)
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
		return err
	}
	s.stats.queueReqs.With(p.prio.String()).Inc()
	p.compiled = true
	p.addPending(i, e, true)
	return nil
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

// handleStats serves GET /stats: the registry's snapshot as JSON, every
// family /metrics renders, as plain data (obs.FamilySnapshot).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats.reg.Snapshot())
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

// front is the request front both compile endpoints share: the method
// check, the chaos delay, the tenant counters, the quota charge and the
// size-limited decode (decode.go). /v1/compile pays its one quota token
// before the body is read, so a tenant over its bucket costs the
// daemon a header lookup and a counter bump, not a megabyte of JSON
// decoding; a batch pays one token per program once it is decoded. The
// body is read whole before it is decoded, so 413 depends on its size
// alone. It returns the decoded programs and the request's start time,
// or nil programs once it has answered with an error.
func (s *Server) front(w http.ResponseWriter, r *http.Request, batch bool) ([]CompileRequest, time.Time) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, &ErrorResponse{Error: "POST only"})
		return nil, time.Time{}
	}
	s.cfg.Chaos.Delay(chaos.LatencySpike)
	started := time.Now()
	// The tenant is the one client-chosen label value, and Go's server
	// passes header bytes >= 0x80 through. The text format forbids
	// invalid UTF-8, so such bytes become U+FFFD, as encoding/json
	// writes them in /stats; the quota bucket, the counters, the log and
	// the trace then all see one name.
	tenant := strings.ToValidUTF8(r.Header.Get("X-Tenant"), "\uFFFD")
	if tenant == "" {
		tenant = admission.DefaultTenant
	}
	tc := s.stats.tenant(tenant)
	tc.requests.Inc()
	note(r, "tenant", tenant)
	var reqs []CompileRequest
	var body any
	if batch {
		body = new(BatchRequest)
	} else {
		if !s.charge(w, r, tenant, tc, 1) {
			return nil, started
		}
		reqs = make([]CompileRequest, 1)
		body = &reqs[0]
	}
	if err := decodeBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes), body); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.respondError(w, &clientError{status: status, err: fmt.Errorf("decode request: %w", err)})
		return nil, started
	}
	if b, ok := body.(*BatchRequest); ok {
		if len(b.Programs) == 0 {
			s.respondError(w, &clientError{status: http.StatusBadRequest,
				err: errors.New("empty batch: programs is required")})
			return nil, started
		}
		if !s.charge(w, r, tenant, tc, len(b.Programs)) {
			return nil, started
		}
		reqs = b.Programs
	}
	return reqs, started
}

// charge takes n of the tenant's quota tokens, one per program, and
// sets the rate-limit headers. A denial answers 429 and returns false;
// tokens already taken stay taken, exactly as n sequential requests
// would have spent them.
func (s *Server) charge(w http.ResponseWriter, r *http.Request, tenant string, tc *tenantCounters, n int) bool {
	h := w.Header()
	for range n {
		d := s.quota.Allow(tenant)
		if d.OK {
			if d.Remaining >= 0 {
				h.Set("X-RateLimit-Limit", strconv.Itoa(d.Limit))
				h.Set("X-RateLimit-Remaining", strconv.Itoa(d.Remaining))
			}
			continue
		}
		tc.rejected.Inc()
		s.stats.quotaRejected.Inc()
		s.stats.rejected.Add(1)
		obs.TraceFrom(r.Context()).Root().Event("429-quota")
		retry := d.RetryAfterSeconds()
		h.Set("X-RateLimit-Limit", strconv.Itoa(d.Limit))
		h.Set("X-RateLimit-Remaining", strconv.Itoa(d.Remaining))
		h.Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, &ErrorResponse{
			Error:             fmt.Sprintf("tenant %q over quota (%g req/s sustained)", tenant, s.cfg.TenantRate),
			RetryAfterSeconds: retry,
		})
		return false
	}
	return true
}

// program is one program of a compile request after the per-program
// step: its parse, keys and deadline, and where each block stands.
type program struct {
	prog     *ir.Program
	fp       string // program fingerprint, 16 hex digits
	optsFP   uint64
	tier     string
	prio     admission.Priority
	started  time.Time
	deadline time.Duration
	// blocks holds each block's response in program order, nil while
	// the block is pending.
	blocks  []*engine.BlockResponse
	pending []pendingBlock
	// The dispositions among the blocks; the cache stamps take the worst.
	compiled, coalesced, disk, peer bool
}

// pendingBlock is a block whose cache entry was in flight at dispatch:
// one this request enqueued as its leader, or one it joined.
type pendingBlock struct {
	index  int
	e      *engine.Entry
	leader bool
}

// addPending records block i as pending on e. The list is sized on
// first use for every block from i on, so a program allocates it at
// most once and an all-hit program never.
func (p *program) addPending(i int, e *engine.Entry, leader bool) {
	if p.pending == nil {
		p.pending = make([]pendingBlock, 0, len(p.blocks)-i)
	}
	p.pending = append(p.pending, pendingBlock{index: i, e: e, leader: leader})
}

// prepare is the per-program step both compile endpoints share. It
// applies Config.ForcePolicy, lowers the options, resolves the priority
// (the X-Priority header wins over the body's field; neither is part of
// the cache key), parses the program and works out its tier, deadline
// and fingerprints. Then it fans the program out into one cache
// dispatch per block: each block's fingerprint plus the options
// fingerprint is its own cache key (docs/CACHE-KEYS.md), so hits,
// misses, single-flight coalescing, disk records and peer exchange are
// all block-granular, and two programs sharing blocks share their
// compilations. Parsing and dispatch are the parse and lookup stages.
// A client error returns a
// *clientError and no program; an admission refusal returns its error
// beside the program, whose earlier blocks stay dispatched.
func (s *Server) prepare(r *http.Request, req *CompileRequest, started time.Time) (*program, error) {
	if s.cfg.ForcePolicy != "" {
		req.Options.Policy = s.cfg.ForcePolicy
	}
	opts, err := req.Options.compileOptions()
	if err != nil {
		return nil, &clientError{status: http.StatusBadRequest, stage: "options", err: fmt.Errorf("options: %w", err)}
	}
	prioTag := r.Header.Get("X-Priority")
	if prioTag == "" {
		prioTag = req.Priority
	}
	prio, err := admission.ParsePriority(prioTag)
	if err != nil {
		return nil, &clientError{status: http.StatusBadRequest, err: fmt.Errorf("priority: %w", err)}
	}
	tr := obs.TraceFrom(r.Context())
	parse := s.stats.stages.StartStage(tr, nil, stageParse)
	prog, err := ir.Parse(req.Program)
	parse.End(err)
	if err != nil {
		return nil, &clientError{status: http.StatusBadRequest, stage: "parse", err: fmt.Errorf("parse program: %w", err)}
	}

	p := &program{prog: prog, optsFP: req.Options.fingerprint(), tier: req.Options.Budget,
		prio: prio, started: started, deadline: s.timeout(req.TimeoutMillis)}
	if p.tier == "" {
		p.tier = TierDefault
	}
	fp, blockFPs := prog.Fingerprints()
	p.fp = fmt.Sprintf("%016x", fp)
	blocks := prog.Blocks()
	p.blocks = make([]*engine.BlockResponse, len(blocks))
	lookup := s.stats.stages.StartStage(tr, nil, stageLookup)
	for i, b := range blocks {
		err = s.dispatch(r, tr, p, i, b, engine.Key{Block: blockFPs[i], Opts: p.optsFP}, opts)
		if err != nil {
			break
		}
	}
	lookup.End(err)
	return p, err
}

// await resolves one pending block of p. A block the request leads
// waits for its job, which the engine bounds by the program's deadline
// (the compile degrades rather than fails). A coalesced block waits on
// another request's leader, so here its wait is bounded by this
// program's own deadline, not the leader's: a program asking for 100ms
// must not block for an in-flight leader's 60s. Expiry fails only this
// program with errDeadline; the shared entry completes for everyone
// still waiting. A client that hangs up ends the wait with ctx's error.
func (s *Server) await(ctx context.Context, p *program, b pendingBlock) (*engine.BlockResponse, error) {
	var expire <-chan time.Time
	var stage obs.Stage
	if !b.leader {
		t := time.NewTimer(p.deadline - time.Since(p.started))
		defer t.Stop()
		expire = t.C
		stage = s.stats.stages.StartStage(obs.TraceFrom(ctx), nil, stageCoalesced)
	}
	var err error
	select {
	case <-b.e.Done:
		err = b.e.Err
	case <-expire:
		err = errDeadline
	case <-ctx.Done():
		// The compilation still completes and populates the cache for
		// the next asker. Its spans keep appending to this trace after
		// the root finishes; the stored snapshot may miss them.
		err = ctx.Err()
	case <-s.eng.Done():
		err = engine.ErrShutdown
	}
	stage.End(err)
	if err != nil {
		return nil, err
	}
	return b.e.Resp, nil
}

// handleCompile is the one-program case of the shared request path,
// without streaming: it awaits the pending blocks in program order and
// answers with the assembled program.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	reqs, started := s.front(w, r, false)
	if reqs == nil {
		return
	}
	p, err := s.prepare(r, &reqs[0], started)
	root := obs.TraceFrom(r.Context()).Root()
	if p != nil {
		s.stats.requests.Add(1)
		note(r, "fingerprint", p.fp, "tier", p.tier, "priority", p.prio.String())
		root.SetAttr("fingerprint", p.fp)
		root.SetAttr("tier", p.tier)
		root.SetAttr("priority", p.prio.String())
	}
	if err != nil {
		s.respondError(w, err)
		return
	}

	// The request-level cache disposition is the *worst* block's:
	// compiling anything makes the response a miss, else waiting on
	// another request's compile makes it coalesced, else a disk or peer
	// decode beats calling it a pure memory hit. A single-block program
	// reproduces the pre-batching program-granular accounting exactly.
	switch {
	case p.compiled:
		s.stats.cacheMisses.Add(1)
		note(r, "cache", "miss")
		root.Event("cache-miss")
	case p.coalesced:
		s.stats.coalesced.Add(1)
		note(r, "cache", "coalesced")
		root.Event("coalesced")
	case p.disk:
		note(r, "cache", "disk")
	case p.peer:
		note(r, "cache", "peer")
	default:
		s.stats.cacheHits.Add(1)
		note(r, "cache", "hit")
		root.Event("cache-hit")
	}
	for _, b := range p.pending {
		resp, err := s.await(r.Context(), p, b)
		if err != nil && err == r.Context().Err() {
			s.stats.clientErrors.Add(1) // client gone: nobody to answer
			return
		}
		if err != nil {
			s.respondError(w, err)
			return
		}
		p.blocks[b.index] = resp
	}
	cached := !p.compiled
	s.respond(w, r, assembleResponse(p.prog, p.fp, p.blocks, p.optsFP).Stamped(cached, p.coalesced && cached, time.Since(started)))
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

// clientError is a request the client must change: a body that does
// not decode, or a program whose options, priority or text are invalid.
// Its text names the failed step ("parse program: …").
type clientError struct {
	status int    // 400 or 413
	stage  string // "options", "parse", or "" when unattributed
	err    error
}

func (e *clientError) Error() string { return e.err.Error() }

// errorBody maps a failure to its status and error body: the one
// mapping both compile endpoints use. /v1/compile answers with it; the
// batch endpoint copies its error, stage and block into the program's
// error frame. Every 503 carries an adaptive Retry-After from the
// admission queue's drain-rate estimate — backlog × observed per-item
// drain interval, clamped — instead of a constant.
func (s *Server) errorBody(err error) (int, *ErrorResponse) {
	var ce *clientError
	var cpe *compile.Error
	switch {
	case errors.As(err, &ce):
		return ce.status, &ErrorResponse{Error: err.Error(), Stage: ce.stage}
	case errors.Is(err, errBusy), errors.Is(err, engine.ErrShutdown), errors.Is(err, errDeadline),
		errors.Is(err, errInfeasible), errors.Is(err, admission.ErrShed), errors.Is(err, admission.ErrFull):
		return http.StatusServiceUnavailable, &ErrorResponse{Error: err.Error(), RetryAfterSeconds: s.eng.RetryAfterSeconds()}
	case errors.As(err, &cpe):
		return http.StatusUnprocessableEntity, &ErrorResponse{Error: err.Error(), Stage: cpe.Stage, Block: cpe.Block}
	}
	return http.StatusUnprocessableEntity, &ErrorResponse{Error: err.Error()}
}

// respondError answers with err's status and body and counts the
// outcome.
func (s *Server) respondError(w http.ResponseWriter, err error) {
	status, body := s.errorBody(err)
	switch status {
	case http.StatusServiceUnavailable:
		s.stats.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfterSeconds))
	case http.StatusUnprocessableEntity:
		s.stats.compileErrors.Add(1)
	default:
		s.stats.clientErrors.Add(1)
	}
	writeError(w, status, body)
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
