// Command bschedd is the balanced-scheduling compilation daemon: it
// serves the hardened compile pipeline over an HTTP JSON API with a
// fixed worker pool, a bounded request queue with explicit
// backpressure, and a sharded content-addressed schedule cache with
// single-flight deduplication. See docs/SERVER.md for the API.
//
// Usage:
//
//	bschedd [-addr HOST:PORT] [-workers N] [-queue N] [-cache N]
//	        [-cache-dir DIR] [-cache-max-bytes N]
//	        [-timeout D] [-max-timeout D] [-max-bytes N]
//	        [-policy NAME]
//	        [-traces N] [-trace-sample N]
//	        [-interactive-weight N] [-codel-target D] [-codel-interval D]
//	        [-tenant-rate R] [-tenant-burst B]
//	        [-breaker-threshold N] [-breaker-cooldown D] [-chaos SPEC]
//	        [-peers URL,URL,...] [-node-id URL] [-ring-replicas N]
//	        [-profile-dir DIR] [-profile-interval D]
//	        [-log-format kv|json|none] [-pprof]
//
// Endpoints:
//
//	POST /v1/compile      compile a program (JSON body, see docs/API.md)
//	POST /v1/compile/batch  compile many programs, streaming one NDJSON
//	                      frame per block as it completes (docs/API.md)
//	GET  /v1/peer/lookup/{key}  peer-cache read (fleet protocol, docs/CLUSTER.md)
//	PUT  /v1/peer/offer/{key}   peer-cache write-behind fill (fleet protocol)
//	GET  /healthz         liveness probe (degraded field under fleet/disk trouble)
//	GET  /stats           every metric family /metrics renders, as JSON data
//	GET  /metrics         Prometheus text exposition (docs/OBSERVABILITY.md)
//	GET  /v1/traces       index of retained request traces (JSON)
//	GET  /v1/traces/{id}  one trace as Chrome trace-event JSON (Perfetto);
//	                      ?format=tree for the raw span tree (also each
//	                      peer's answer to a stitch), ?fleet=1 to stitch
//	                      in remote fragments from ring peers
//	GET  /v1/fleet/stats  every node's /stats and their merge, from any node
//	GET  /v1/fleet/metrics  cluster-wide merged Prometheus exposition
//	GET  /v1/profiles     continuous-profiling ring index (with -profile-dir);
//	                      /v1/profiles/{name} downloads one pprof capture
//	GET  /debug/pprof     runtime profiles (only with -pprof)
//
// Every request is logged to stderr as one structured line (key=value
// by default, -log-format json for JSON lines, none to disable) with a
// process-unique request ID that is also returned in the X-Request-ID
// response header. Every request is also traced: the trace id rides the
// X-Trace-ID response header and the log line's trace= field, incoming
// W3C traceparent headers are honored, and completed traces are kept in
// a bounded in-memory store under tail-based retention (errors and
// degradations always, the slowest tail, 1-in-N of the healthy rest —
// see docs/OBSERVABILITY.md).
//
// With -cache-dir the schedule cache is persistent: cacheable
// compilations are appended, write-behind, to CRC-checksummed segment
// files under the directory, and a restarted daemon replays them at
// startup so previously compiled programs are served warm (a disk hit)
// instead of recompiled. -cache-max-bytes bounds the directory;
// past it, compaction drops the coldest entries. Torn or corrupt
// records are skipped individually and counted in
// bschedd_diskcache_corrupt_records_total, never served. See
// docs/SERVER.md, "Persistent cache".
//
// The daemon prints "bschedd: listening on ADDR" once the socket is
// bound (so scripts can start it with -addr 127.0.0.1:0 and scrape the
// ephemeral port) and shuts down cleanly on SIGINT/SIGTERM: the listener
// stops accepting, in-flight requests drain, then the worker pool stops.
//
// Overload resilience (docs/ROBUSTNESS.md, "Overload behavior"): the
// request queue is two-priority (X-Priority: interactive|batch) with
// weighted service, governed by a CoDel-style sojourn controller that
// sheds newest arrivals with 503 + adaptive Retry-After before the
// queue fills; -tenant-rate enables per-tenant token-bucket quotas
// keyed by X-Tenant (429 + X-RateLimit-* headers); requests whose
// deadline is below the tier's observed p99 compile estimate fail fast;
// and a circuit breaker around the persistent cache degrades a sick
// disk to memory-only serving. -chaos injects faults (slow-compile,
// disk-error, latency-spike) for drills.
//
// Scheduling-policy portfolio (docs/POLICIES.md): each request may pick
// a policy (options.policy: balanced, traditional, average,
// balanced-dense, critical-path, or auto for the per-block decision
// rule); -policy forces one policy on every request this daemon serves,
// whatever the request asked for — an operator override for A/B
// experiments and incident drills. The policy is part of the options
// fingerprint, so forced and per-request compilations never share cache
// entries, on disk or across the fleet.
//
// Multi-node fleet (docs/CLUSTER.md): -peers joins this daemon to a
// consistent-hash fleet over cache keys. -node-id is this node's
// advertised base URL (its ring identity; peers must list exactly this
// string), -ring-replicas the virtual-node count. On a local miss for a
// key another node owns, the daemon probes the owner under a strict
// budget before compiling; after compiling a foreign-owned key it
// offers the result to the owner, write-behind. A dead peer costs a
// failed probe and a breaker trip, never a client error; with no
// -peers the daemon is a standalone node and behaves exactly as
// before.
//
// This command is flag parsing plus serve; `go test ./...` checks its
// behaviour. The e2e suites in internal/server drive the service over
// real HTTP: TestCacheHit and TestTraceEndToEnd (round trip, cache hit,
// trace), TestMetricsExpositionFormat (the metric catalog),
// TestBreakerTripRecover and TestTenantQuotaExhaustRefill (faults and
// quotas), TestFleet* (a 3-node fleet), TestBatchSharedBlocksCompileOnce
// (the NDJSON stream), and TestPolicyCacheMemorySoundness and
// TestForcePolicyOverride (the policy portfolio). In the module root,
// TestBscheddDaemon, TestBscheddWarmRestart and
// TestBscheddRejectsBadConfig run this binary itself.
//
// Continuous profiling (-profile-dir): the daemon captures periodic
// CPU and heap pprof profiles (-profile-interval) into a bounded
// on-disk ring under the directory, and also triggers a capture when
// the disk circuit breaker opens or admission shedding bursts — so the
// profile that explains an incident exists before anyone reproduces
// it. GET /v1/profiles lists the ring; see docs/OBSERVABILITY.md,
// "Fleet observability".
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bsched/internal/admission"
	"bsched/internal/chaos"
	"bsched/internal/engine"
	"bsched/internal/obs"
	"bsched/internal/sched"
	"bsched/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8370", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", 0, "compilation worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", engine.DefaultQueueDepth, "bounded request queue depth; past it requests get 503 + Retry-After")
	cache := flag.Int("cache", engine.DefaultCacheCapacity, "schedule cache capacity in entries (negative disables)")
	cacheDir := flag.String("cache-dir", "", "persistent schedule-cache directory, replayed at startup for a warm restart (empty disables)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", engine.DefaultCacheMaxBytes, "on-disk bound of the persistent cache; past it compaction drops the coldest entries")
	timeout := flag.Duration("timeout", server.DefaultCompileTimeout, "default per-compilation deadline")
	maxTimeout := flag.Duration("max-timeout", server.MaxCompileTimeout, "upper clamp on request-supplied deadlines")
	maxBytes := flag.Int64("max-bytes", server.DefaultMaxRequestBytes, "maximum request body size")
	policy := flag.String("policy", "", "force every request onto one scheduling policy ("+strings.Join(sched.PolicyNames(), "|")+"|"+sched.PolicyAuto+"); empty honors per-request options (docs/POLICIES.md)")
	traces := flag.Int("traces", obs.DefaultTraceCapacity, "retained request trace capacity (negative disables tracing)")
	traceSample := flag.Int("trace-sample", obs.DefaultTraceSampleEvery, "keep 1 in N healthy fast traces (errors, degradations and the slow tail are always kept)")
	interactiveWeight := flag.Int("interactive-weight", admission.DefaultInteractiveWeight, "interactive requests served per batch request when both priority classes are backlogged")
	codelTarget := flag.Duration("codel-target", admission.DefaultCoDelTarget, "queue-sojourn target; sojourns persistently above it shed newest arrivals before the queue fills (negative disables)")
	codelInterval := flag.Duration("codel-interval", admission.DefaultCoDelInterval, "how long sojourn must exceed -codel-target before shedding starts")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant sustained request rate in req/s, keyed by X-Tenant (0 disables quotas)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant burst capacity in requests (0 = max(rate, 1))")
	breakerThreshold := flag.Int("breaker-threshold", admission.DefaultBreakerThreshold, "consecutive disk I/O failures that trip the persistent-cache circuit breaker open")
	breakerCooldown := flag.Duration("breaker-cooldown", admission.DefaultBreakerCooldown, "how long the tripped breaker waits before a half-open probe")
	chaosSpec := flag.String("chaos", "", "fault-injection spec, e.g. 'disk-error:every=1,limit=6;slow-compile:p=0.1,delay=50ms' (names: slow-compile, disk-error, latency-spike; options: every, p, limit, delay)")
	peers := flag.String("peers", "", "comma-separated peer base URLs; joins this daemon to a consistent-hash fleet (empty = standalone)")
	nodeID := flag.String("node-id", "", "this node's advertised base URL — its identity on the ring; required with -peers and must match what the peers list")
	ringReplicas := flag.Int("ring-replicas", 0, "virtual nodes per real node on the consistent-hash ring (0 = the cluster default)")
	peerProbeTimeout := flag.Duration("peer-probe-timeout", 0, "budget for one peer-cache lookup before falling back to a local compile (0 = the cluster default)")
	profileDir := flag.String("profile-dir", "", "continuous-profiling directory: periodic and event-triggered CPU/heap pprof captures land here in a bounded ring (empty disables)")
	profileInterval := flag.Duration("profile-interval", 0, "periodic profile capture interval (0 = the profiler default, negative disables periodic capture; event triggers still fire)")
	logFormat := flag.String("log-format", "kv", "structured request log format: kv, json or none")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.Parse()

	logger, err := buildLogger(*logFormat)
	if err != nil {
		fatal(err)
	}
	inj, err := chaos.Parse(*chaosSpec)
	if err != nil {
		fatal(err)
	}
	cfg := server.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheCapacity:     *cache,
		CacheDir:          *cacheDir,
		CacheMaxBytes:     *cacheMaxBytes,
		MaxRequestBytes:   *maxBytes,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		Logger:            logger,
		TraceCapacity:     *traces,
		TraceSampleEvery:  *traceSample,
		InteractiveWeight: *interactiveWeight,
		CoDelTarget:       *codelTarget,
		CoDelInterval:     *codelInterval,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		BreakerThreshold:  *breakerThreshold,
		BreakerCooldown:   *breakerCooldown,
		ForcePolicy:       *policy,
		Chaos:             inj,
		SelfURL:           *nodeID,
		RingReplicas:      *ringReplicas,
		PeerProbeTimeout:  *peerProbeTimeout,
		ProfileDir:        *profileDir,
		ProfileInterval:   *profileInterval,
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}
	if inj != nil {
		fmt.Printf("bschedd: chaos injection active: %s\n", inj)
	}

	if err := serve(cfg, *addr, *pprofOn); err != nil {
		fatal(err)
	}
}

// buildLogger maps the -log-format flag onto a stderr logger; "none"
// disables request logging entirely.
func buildLogger(format string) (*obs.Logger, error) {
	if format == "none" || format == "off" {
		return nil, nil
	}
	f, err := obs.ParseFormat(format)
	if err != nil {
		return nil, err
	}
	return obs.NewLogger(os.Stderr, f), nil
}

// withPprof mounts the net/http/pprof handlers next to the service
// routes. Explicit registrations, not the package's DefaultServeMux
// side effect — the profiles are served only when -pprof asked for
// them.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve runs the daemon until SIGINT/SIGTERM.
func serve(cfg server.Config, addr string, pprofOn bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	svc, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer svc.Close()

	handler := svc.Handler()
	if pprofOn {
		handler = withPprof(handler)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}
	fmt.Printf("bschedd: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("bschedd: shutting down")
	// Stop accepting, drain in-flight handlers (workers still run so
	// queued compilations finish), then Close stops the pool.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	svc.Close()
	fmt.Println("bschedd: shutdown complete")
	return nil
}
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bschedd:", err)
	os.Exit(1)
}
