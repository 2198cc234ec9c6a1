// Package server is the HTTP frontend of the bschedd daemon: it turns
// the compile/cache/coalesce kernel (bsched/internal/engine) into a
// long-lived concurrent compilation service, and — with Config.Peers
// set — into one node of a consistent-hash fleet (bsched/internal/
// cluster, docs/CLUSTER.md).
//
// Architecture, in one request's lifetime. The unit of caching,
// single-flight, persistence and peer exchange is the *block*
// (docs/CACHE-KEYS.md): a program request fans out into one engine
// resolve per block, and the program response is assembled at the edge
// from the per-block results. Both compile endpoints run one request
// path: the front (tenant quota, decode), the per-program step
// (options, priority, parse, fingerprints, per-block resolve) and the
// per-block wait. A block's cache entry is the engine's alone
// (engine.Resolve, engine.Wait, engine.Read): this package counts what
// each resolve returns and never completes, removes or waits on an
// entry itself.
//
//	POST /v1/compile
//	   ├─ route: method check (405 before any other work)
//	   ├─ front: tenant quota, size-limited decode
//	   ├─ per-program step: options + priority + parse
//	   ├─ per block, engine.Resolve on
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
//	   └─ the handler waits (engine.Wait) on its pending blocks and
//	        assembles the program response in program order
//
// POST /v1/compile/batch runs the same front and, per program, the same
// step and waits, but streams per-block results back as NDJSON as each
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
// cache". All of that, the ring-owner probe included, lives in
// internal/engine; this package owns HTTP, the metrics registry, tenant
// quotas, tracing and logging, plus the peer protocol endpoints (GET
// /v1/peer/lookup/{key}, PUT /v1/peer/offer/{key}) the cluster layer
// speaks. The fleet views (/v1/fleet/*, ?fleet=1 trace stitching) read
// every peer through the cluster client's one budgeted GET
// (cluster.Client.FetchAll), which answers in peer order, so this
// package keeps no fan-out of its own. docs/API.md is the complete HTTP
// surface reference.
//
// Observability (see docs/OBSERVABILITY.md for the full catalog): every
// counter, gauge and latency histogram lives in one internal/obs
// registry, and each family is registered by the package that updates
// it: this package registers the request-side families (the peer offer
// and profile ones included, so the catalog does not depend on flags)
// and hands the registry to the engine, which registers its own (disk
// cache, breaker, compile tiers, degradations, policies, peer probes,
// and the gauges over its queue, cache, breaker and disk). GET /metrics renders it in
// Prometheus text exposition format; GET /stats serves the registry's
// snapshot, the same families as JSON data (bucket counts, not
// quantiles); GET /healthz is a liveness probe that also reports fleet
// degradation.
// Stages (parse and lookup here; disk, peer, queue, coalesced, compile,
// and the compiler's deps, weights, schedule, regalloc via
// compile.Options.SpanObserver in the engine) are each timed once, as a
// stage histogram sample and its span (obs.Stage). When Config.Logger is set,
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
	// and incident-triggered (breaker_open, shed_burst) CPU/heap pprof
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
			Metrics:      cluster.Metrics{OfferSent: s.stats.offerSent, OfferDropped: s.stats.offerDropped},
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
			Captures:    s.stats.profileCaptures,
			Logger:      cfg.Logger,
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
		Profiler:          s.profiler,
		Registry:          s.stats.reg,
		Stages:            s.stats.stages,
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
	// the server owns, so they can never drift from the truth. The
	// engine registered the gauges over its own state.
	reg := s.stats.reg
	reg.Gauge("bschedd_quota_tenants",
		"Tenant token buckets currently tracked; 0 with quotas disabled (-tenant-rate 0).",
		func() float64 { return float64(s.quota.Tenants()) })
	reg.Gauge("bschedd_workers",
		"Size of the compilation worker pool (-workers).",
		func() float64 { return float64(cfg.Workers) })
	reg.Gauge("bschedd_uptime_seconds",
		"Seconds since the service started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.Gauge("bschedd_traces_retained",
		"Completed request traces currently retained by the tail-based sampler.",
		func() float64 { return float64(s.tracer.Store().Len()) })
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
// request-ID/logging middleware. Each /v1 route serves one method, and
// only turns any other away with a 405 before the handler runs;
// /healthz, /stats and /metrics accept any method. The peer endpoints
// are always registered — a standalone node answers peer lookups from
// its own cache, which keeps the protocol testable without a fleet.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", only(http.MethodPost, s.handleCompile))
	mux.HandleFunc("/v1/compile/batch", only(http.MethodPost, s.handleCompileBatch))
	mux.HandleFunc("/v1/traces", only(http.MethodGet, s.handleTraces))
	mux.HandleFunc("/v1/traces/", only(http.MethodGet, s.handleTraceByID))
	mux.HandleFunc("/v1/peer/lookup/", only(http.MethodGet, s.handlePeerLookup))
	mux.HandleFunc("/v1/peer/offer/", only(http.MethodPut, s.handlePeerOffer))
	mux.HandleFunc("/v1/fleet/stats", only(http.MethodGet, s.handleFleetStats))
	mux.HandleFunc("/v1/fleet/metrics", only(http.MethodGet, s.handleFleetMetrics))
	mux.HandleFunc("/v1/profiles", only(http.MethodGet, s.handleProfiles))
	mux.HandleFunc("/v1/profiles/", only(http.MethodGet, s.handleProfileByName))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/metrics", s.stats.reg.Handler())
	return s.logged(mux)
}

// only serves h to method and answers every other method 405, with an
// Allow header and a JSON error such as {"error":"GET only"}.
func only(method string, h http.HandlerFunc) http.HandlerFunc {
	refusal := &ErrorResponse{Error: method + " only"}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, refusal)
			return
		}
		h(w, r)
	}
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
				// A 404 is a routine answer (a peer-lookup miss, a trace or
				// profile not retained), not a failure worth the error ring.
				if status >= 400 && status != http.StatusNotFound {
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

// dispatch resolves block i of p through the engine under key and
// counts the outcome. A memory, disk or peer hit lands in p.blocks; a
// block in flight (led or joined) lands in p.pending. A non-nil error
// means admission refused the block (infeasible deadline, sojourn shed,
// queue full); blocks dispatched earlier keep compiling and warm the
// cache regardless.
func (s *Server) dispatch(ctx context.Context, p *program, i int, b *ir.Block, key engine.Key, opts compile.Options) error {
	res, err := s.eng.Resolve(ctx, engine.Job{Block: b, Opts: opts, Deadline: p.deadline, Key: key,
		Tier: p.tier, Priority: p.prio})
	s.stats.block(res.Source).Inc()
	switch {
	case errors.Is(err, engine.ErrInfeasible):
		s.stats.infeasible.Inc()
	case errors.Is(err, admission.ErrShed):
		s.stats.shedSojourn.Inc()
	case err != nil:
		s.stats.shedFull.Inc()
	case res.Source == engine.SourceMiss:
		s.stats.queueReqs.With(p.prio.String()).Inc()
	}
	if err != nil {
		return err
	}
	p.source = max(p.source, res.Source)
	if res.Resp != nil {
		p.blocks[i] = res.Resp
		return nil
	}
	if p.pending == nil {
		// Sized on first use for every block from i on, so a program
		// allocates the list at most once and an all-hit program never.
		p.pending = make([]pendingBlock, 0, len(p.blocks)-i)
	}
	p.pending = append(p.pending, pendingBlock{index: i, res: res})
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

// front is the request front both compile endpoints share: the chaos
// delay, the tenant counters, the quota charge and the size-limited
// decode (decode.go). /v1/compile pays its one quota token before the
// body is read, so a tenant over its bucket costs the daemon a header
// lookup and a counter bump, not a megabyte of JSON decoding; a batch
// pays one token per program once it is decoded. The body is read
// whole before it is decoded, so 413 depends on its size alone. It
// returns the decoded programs and the request's start time, or nil
// programs once it has answered with an error.
func (s *Server) front(w http.ResponseWriter, r *http.Request, batch bool) ([]CompileRequest, time.Time) {
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
	prog    *ir.Program
	fp      string // program fingerprint, 16 hex digits
	optsFP  uint64
	tier    string
	prio    admission.Priority
	started time.Time
	// deadline is started plus the clamped timeout_ms: the one bound the
	// feasibility check, the leader's jobs and a coalesced wait all read.
	deadline time.Time
	// blocks holds each block's response in program order, nil while
	// the block is pending.
	blocks  []*engine.BlockResponse
	pending []pendingBlock
	// source is the worst block's engine.Source, the request-level cache
	// disposition: compiling any block makes the program a miss, else
	// waiting on another request's compile makes it coalesced, and so on.
	source engine.Source
}

// pendingBlock is a block whose cache entry was in flight at dispatch:
// one this request leads (its job is queued), or one it joined.
type pendingBlock struct {
	index int
	res   engine.Resolution
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
		prio: prio, started: started, deadline: started.Add(s.timeout(req.TimeoutMillis))}
	if p.tier == "" {
		p.tier = TierDefault
	}
	fp, blockFPs := prog.Fingerprints()
	p.fp = fmt.Sprintf("%016x", fp)
	blocks := prog.Blocks()
	p.blocks = make([]*engine.BlockResponse, len(blocks))
	lookup := s.stats.stages.StartStage(tr, nil, stageLookup)
	for i, b := range blocks {
		err = s.dispatch(r.Context(), p, i, b, engine.Key{Block: blockFPs[i], Opts: p.optsFP}, opts)
		if err != nil {
			break
		}
	}
	lookup.End(err)
	return p, err
}

// handleCompile is the one-program case of the shared request path,
// without streaming: it waits on the pending blocks in program order and
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

	// The request-level cache disposition is the *worst* block's; a disk
	// or peer decode beats calling it a pure memory hit. A single-block
	// program reproduces the pre-batching program-granular accounting
	// exactly. The engine marks disk and peer hits on the root itself.
	s.stats.cache(p.source).Inc()
	// The logger prints p.source through its String; passing the Source
	// itself, a small integer, spares the hit path boxing a string.
	note(r, "cache", p.source)
	switch p.source {
	case engine.SourceMiss:
		root.Event("cache-miss")
	case engine.SourceCoalesced:
		root.Event("coalesced")
	case engine.SourceMemory:
		root.Event("cache-hit")
	}
	for _, b := range p.pending {
		resp, err := s.eng.Wait(r.Context(), b.res)
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
	s.respond(w, r, assembleResponse(p.prog, p.fp, p.blocks, p.optsFP).Stamped(p.source, time.Since(started)))
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
	case errors.Is(err, engine.ErrBusy), errors.Is(err, engine.ErrShutdown), errors.Is(err, engine.ErrDeadline),
		errors.Is(err, engine.ErrInfeasible), errors.Is(err, admission.ErrShed), errors.Is(err, admission.ErrFull):
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
