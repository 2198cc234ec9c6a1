// Package engine is the compile/cache/coalesce kernel behind bschedd:
// a content-addressed single-flight schedule cache (memory LRU over an
// optional persistent disk layer), a two-priority admission queue, a
// fixed worker pool, a per-tier cost estimator and the disk circuit
// breaker — everything about serving compilations that is not HTTP.
//
// The package exists so the daemon can have more than one frontend over
// one kernel: internal/server's public HTTP API and the cluster peer
// protocol (GET /v1/peer/lookup, PUT /v1/peer/offer) both drive the same
// Engine, so a schedule compiled for a remote peer is indistinguishable
// from one compiled for a local client. A frontend hands the engine its
// *obs.Registry through Config, and the engine registers there the
// families only it updates: the disk-cache and breaker counters, the
// per-tier compile histogram, degradations, the per-policy outcomes and
// the gauges over its queue, cache, breaker and disk. The frontend's
// stage histogram (Config.Stages) is the one family both sides record
// on. The engine owns no logger or tracer; it records its stages as
// spans of the *obs.Trace a Job carries.
//
// One compilation's lifetime through the engine:
//
//	Lookup(key)            → completed Entry (hit) | in-flight Entry
//	                         (coalesce) | fresh Entry + leader=true
//	leader: DiskGet(key)   → persistent-layer probe; a valid record
//	                         completes the Entry without compiling
//	leader: Enqueue(Job)   → bounded two-priority queue, worker pool
//	worker: CompileFn      → publish Entry, write-behind disk fill,
//	                         offer to the key's ring owner (Peers seam)
//
// The cluster layer plugs in at two points only: Config.Peers receives
// completed foreign-key compilations (write-behind offers), and the
// frontends call Peek/Install/DiskGet to answer and absorb peer traffic.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bsched/internal/admission"
	"bsched/internal/chaos"
	"bsched/internal/compile"
	"bsched/internal/ir"
	"bsched/internal/obs"
	"bsched/internal/obs/profiler"
)

// Defaults for Config's zero fields.
const (
	// DefaultQueueDepth is the bounded-queue capacity when
	// Config.QueueDepth is zero.
	DefaultQueueDepth = 64
	// DefaultCacheCapacity is the schedule-cache size, in entries, when
	// Config.CacheCapacity is zero.
	DefaultCacheCapacity = 1024
)

// cacheShards is how many ways the schedule cache is split to keep lock
// hold times short.
const cacheShards = 16

// Labels of the engine's stages on Config.Stages, beside the
// compile.Stage* names it forwards from inside each compilation.
const (
	StageQueue   = "queue"   // enqueue → worker pickup wait (Job.Queue)
	StageCompile = "compile" // the whole CompileFn call inside a worker
)

// ErrShutdown fails every Entry still queued when the engine closes.
// The message is client-visible through the HTTP frontend, so it reads
// as the daemon's, not the package's.
var ErrShutdown = errors.New("server shutting down")

// PeerCache receives completed cacheable compilations so a cluster
// layer can offer them to the key's ring owner. Offer must not block:
// it is called from a compilation worker. The engine calls it for every
// cacheable result; deciding whether the key is foreign (and dropping
// self-owned offers) is the implementation's job.
type PeerCache interface {
	Offer(key Key, resp *BlockResponse)
}

// Config sizes the engine. The zero value is a sensible default.
type Config struct {
	// Workers is the size of the compilation worker pool. Zero means
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted
	// compilations per priority class. Zero means DefaultQueueDepth.
	QueueDepth int
	// CacheCapacity bounds the schedule cache, in entries. Zero means
	// DefaultCacheCapacity; negative disables caching (and with it
	// single-flight coalescing).
	CacheCapacity int
	// CacheDir, when non-empty, enables the write-behind persistent
	// schedule cache under this directory. Empty disables persistence.
	CacheDir string
	// CacheMaxBytes bounds the persistent cache on disk; past it,
	// compaction drops the coldest keys. Zero means DefaultCacheMaxBytes.
	CacheMaxBytes int64
	// InteractiveWeight is the interactive:batch service ratio when both
	// priority classes are backlogged. Zero means
	// admission.DefaultInteractiveWeight.
	InteractiveWeight int
	// CoDelTarget / CoDelInterval tune the admission queue's sojourn
	// controller. Zeros mean the admission defaults; a negative target
	// disables sojourn shedding.
	CoDelTarget   time.Duration
	CoDelInterval time.Duration
	// BreakerThreshold / BreakerCooldown tune the disk-cache circuit
	// breaker. Zeros mean the admission defaults.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Chaos, when non-nil, is the fault-injection seam.
	Chaos *chaos.Injector
	// Profiler, when non-nil, captures a profile when the disk breaker
	// opens.
	Profiler *profiler.Profiler

	// Registry receives the engine's metric families (see metrics.go).
	// Nil installs a private registry.
	Registry *obs.Registry
	// Stages is the stage histogram for StageCompile and the compile.Stage*
	// records read from compile.Options.SpanObserver. Nil installs an
	// unregistered family.
	Stages *obs.HistogramVec

	// CompileFn is the compilation the workers run, one Job's block per
	// call: the block is the engine's unit of caching and single-flight,
	// and a program's blocks run as separate jobs across the pool. Nil
	// means compile.RunBlock. Tests substitute it to count invocations
	// and to block the pool at will.
	CompileFn func(context.Context, *ir.Block, compile.Options) (*compile.BlockResult, error)
	// Peers, when non-nil, receives completed cacheable compilations
	// (see PeerCache).
	Peers PeerCache
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = DefaultCacheCapacity
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Stages == nil {
		c.Stages = obs.NewRegistry().HistogramVec("stages", "stages", nil, "stage")
	}
	if c.CompileFn == nil {
		c.CompileFn = compile.RunBlock
	}
	return c
}

// Job is one queued compilation: a single block from the leader
// request's parsed program plus its lowered options, bound for the
// worker pool, where one CompileFn call compiles it. A multi-block
// program fans out into one Job per missed block, each with its own
// Entry; hits, misses and coalescing are all per block.
type Job struct {
	Block *ir.Block
	Opts  compile.Options
	// Deadline is the leader request's: its start plus its clamped
	// timeout. Queue wait and the request's earlier blocks count against
	// it.
	Deadline time.Time
	Key      Key
	E        *Entry
	// Tier labels the per-tier compile-duration observation.
	Tier string
	// Priority is the admission class to queue under; Instrs is the
	// block's instruction count, which feeds the per-tier cost
	// estimator after the compile.
	Priority admission.Priority
	Instrs   int
	// Tr is the leader request's trace (nil when tracing is disabled),
	// which the compile and per-block stage spans hang off. Queue is the
	// open StageQueue stage: the worker ends it at pickup, the caller
	// with the error when Enqueue refuses the job.
	Tr    *obs.Trace
	Queue obs.Stage
}

// Engine is the compilation kernel. Create with New, drive it through
// Lookup/DiskGet/Enqueue (the local request path) and
// Peek/Install (the peer path), stop with Close.
type Engine struct {
	cfg     Config
	adm     *admission.Queue[*Job]
	breaker *admission.Breaker
	est     *compile.CostEstimator
	chaos   *chaos.Injector
	cache   *cache
	disk    *diskCache // nil without Config.CacheDir
	met     *metrics

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
}

// New builds the engine and starts its worker pool. The only failure
// mode is an unusable persistent-cache directory: corrupt cache *data*
// never fails startup — damaged records are counted and skipped during
// replay.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	en := &Engine{
		cfg: cfg,
		adm: admission.NewQueue[*Job](admission.Config{
			Depth:             cfg.QueueDepth,
			InteractiveWeight: cfg.InteractiveWeight,
			CoDelTarget:       cfg.CoDelTarget,
			CoDelInterval:     cfg.CoDelInterval,
		}),
		est:    compile.NewCostEstimator(),
		chaos:  cfg.Chaos,
		cache:  newCache(cfg.CacheCapacity, cacheShards),
		met:    newMetrics(cfg.Registry),
		ctx:    ctx,
		cancel: cancel,
	}
	en.registerGauges(cfg.Registry)
	en.breaker = admission.NewBreaker(admission.BreakerConfig{
		Threshold:    cfg.BreakerThreshold,
		Cooldown:     cfg.BreakerCooldown,
		OnTransition: en.onBreakerTransition,
	})
	if cfg.CacheDir != "" {
		d, err := openDiskCache(cfg.CacheDir, cfg.CacheMaxBytes, &en.met.disk, en.breaker, en.chaos)
		if err != nil {
			cancel()
			return nil, err
		}
		en.disk = d
	}
	for i := 0; i < cfg.Workers; i++ {
		en.wg.Add(1)
		go en.worker()
	}
	return en, nil
}

// Close stops the worker pool, fails any still-queued jobs with
// ErrShutdown, and flushes the persistent cache's write-behind queue so
// completed compilations survive the restart. In-flight compilations
// observe the cancelled context and finish quickly through the
// degradation ladder. Safe to call twice.
func (en *Engine) Close() {
	en.once.Do(func() {
		en.cancel()
		en.wg.Wait()
		en.adm.Close()
		for {
			j, _, ok := en.adm.TryPop()
			if !ok {
				break
			}
			en.cache.remove(j.Key, j.E)
			j.E.Complete(nil, ErrShutdown)
		}
		en.disk.close()
	})
}

// Done is closed when the engine begins shutting down; frontends select
// on it while awaiting an Entry so in-flight waiters fail fast.
func (en *Engine) Done() <-chan struct{} { return en.ctx.Done() }

// Lookup returns the entry for key, creating one when absent; leader is
// true when the caller installed the entry and must publish the
// compilation (via DiskGet, Enqueue, or completing it directly).
func (en *Engine) Lookup(key Key) (e *Entry, leader bool) { return en.cache.lookup(key) }

// Peek returns the resident entry for key without ever installing one —
// the peer protocol's read, where the caller holds no program text.
func (en *Engine) Peek(key Key) (*Entry, bool) { return en.cache.peek(key) }

// Remove drops key from the memory cache if it still maps to e; leaders
// call it before completing an entry with an error.
func (en *Engine) Remove(key Key, e *Entry) { en.cache.remove(key, e) }

// Install absorbs an externally compiled response (a peer's offer) into
// the memory cache as an already-completed entry, and — when persist is
// set — into the persistent layer. It reports false, touching nothing,
// when any entry already exists for the key.
func (en *Engine) Install(key Key, resp *BlockResponse, persist bool) bool {
	if !en.cache.install(key, resp) {
		return false
	}
	if persist {
		en.disk.put(key, resp)
	}
	return true
}

// DiskGet probes the persistent layer, if any, for key. It does not
// touch the memory cache: a leader holding a fresh entry completes it
// with the result; the peer frontend serves the record directly.
func (en *Engine) DiskGet(key Key) (*BlockResponse, bool) { return en.disk.get(key) }

// Enqueue submits the job to the admission queue. On rejection
// (admission.ErrShed / admission.ErrFull) the caller owns the entry's
// failure path and the job's queue stage; on success a worker will
// publish the entry.
func (en *Engine) Enqueue(j *Job) error {
	return en.adm.Push(j.Priority, j)
}

// Estimate forwards to the per-tier cost model fed by completed
// compilations; zero means "no opinion yet".
func (en *Engine) Estimate(tier string, instrs int) time.Duration {
	return en.est.Estimate(tier, instrs)
}

// RetryAfterSeconds is the adaptive Retry-After of a 503, from the
// admission queue's drain-rate estimate.
func (en *Engine) RetryAfterSeconds() int { return en.adm.RetryAfterSeconds() }

// BreakerState is the disk circuit breaker's position, which /healthz
// reports.
func (en *Engine) BreakerState() admission.BreakerState { return en.breaker.State() }

// worker drains the admission queue until shutdown, taking jobs in
// weighted-priority order.
func (en *Engine) worker() {
	defer en.wg.Done()
	for {
		j, _, ok := en.adm.Pop(en.ctx)
		if !ok {
			return
		}
		en.runJob(j)
	}
}

// runJob compiles one job and publishes its entry. Errors are removed
// from the cache (they must not be served to later requests) but still
// complete the entry so coalesced waiters observe them.
func (en *Engine) runJob(j *Job) {
	j.Queue.End(nil)
	ctx, cancel := context.WithDeadline(en.ctx, j.Deadline)
	defer cancel()
	en.chaos.Delay(chaos.SlowCompile)
	stage := en.cfg.Stages.StartStage(j.Tr, nil, StageCompile)
	compileSpan := stage.Span()
	// The compiler reports each stage's block, pass, start and duration
	// through the SpanObserver seam. Every record is a sample of the
	// stage histogram; on a traced job it is also a child of the compile
	// span. A program's jobs compile on several workers at once: the
	// histograms are atomic and the trace serializes appends.
	opts := j.Opts
	opts.SpanObserver = func(rec compile.StageSpan) {
		if sp := en.cfg.Stages.StageAt(j.Tr, compileSpan, rec.Stage, rec.Start, rec.Duration); sp != nil {
			sp.SetAttr("block", rec.Block)
			if rec.Pass > 0 {
				sp.SetAttr("pass", fmt.Sprint(rec.Pass))
			}
		}
	}
	br, err := en.cfg.CompileFn(ctx, j.Block, opts)
	elapsed := stage.End(err)
	en.met.tiers.With(j.Tier).ObserveDuration(elapsed)
	if err != nil {
		en.cache.remove(j.Key, j.E)
		j.E.Complete(nil, err)
		return
	}
	byDeadline := deadlineDegraded(br)
	if !byDeadline {
		// Feed the per-tier cost model that deadline-aware admission
		// compares deadlines against. Failed and deadline-degraded
		// compiles are excluded: their elapsed time measures the failure
		// or the deadline, not the tier's cost.
		en.est.Observe(j.Tier, j.Instrs, elapsed)
	}
	if n := len(br.Degradations); n > 0 {
		compileSpan.Event("degraded")
		j.Tr.SetDegraded()
		en.met.degradations.Add(int64(n))
	}
	if br.Policy != "" {
		compileSpan.SetAttr("policy", br.Policy)
	}
	resp := buildBlockResponse(br, j.Key)
	if policy := resp.Summary.Policy; policy != "" {
		// The block's schedule length in issue slots (instructions plus
		// pass-1 starvation no-ops): the deterministic per-policy outcome.
		en.met.policyBlocks.With(policy).Inc()
		en.met.policyCycles.With(policy).Observe(float64(resp.Summary.Instrs + resp.Summary.VNops1))
	}
	if byDeadline {
		// The schedule is valid for the request whose deadline forced the
		// cheap rungs, but not for the key: the deadline is not part of
		// the key, so caching it would serve the degraded schedule to
		// later requests with generous deadlines. Serve it, don't cache
		// it — in memory, on disk, or on a peer.
		en.cache.remove(j.Key, j.E)
	} else {
		// Same cacheability rule as the in-memory layer: only clean (or
		// deterministically tier-degraded) results are persisted — and
		// only those are worth offering to the key's ring owner.
		en.disk.put(j.Key, resp)
		if en.cfg.Peers != nil {
			en.cfg.Peers.Offer(j.Key, resp)
		}
	}
	j.E.Complete(resp, nil)
}
