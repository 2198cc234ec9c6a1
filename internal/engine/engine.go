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
// per-tier compile histogram, degradations, the per-policy outcomes,
// the peer probes and the gauges over its queue, cache, breaker and
// disk. The frontend's stage histogram (Config.Stages) is the one family
// both sides record on. The engine owns no logger or tracer; it records
// its stages as spans of the *obs.Trace a request's context carries.
//
// A block's cache entry lives in this package alone: no frontend
// completes, removes or waits on one. A block's path is three calls:
//
//	Resolve(ctx, Job)     → memory hit | coalesce onto an in-flight entry
//	                        | leader: disk record → ring owner's copy →
//	                        deadline feasibility → admission queue
//	Wait(ctx, Resolution) → the one wait on an in-flight entry: the
//	                        leader's without a timer, a joined one until
//	                        its own request's deadline
//	Read(ctx, key, hold)  → a peer's lookup: memory, a bounded hold on an
//	                        in-flight entry, then disk
//
// A worker runs CompileFn, settles the entry, and fills the disk and the
// key's ring owner (write-behind). Install absorbs a peer's offer. The
// cluster layer plugs in through Config.Peers alone (Fleet): the ring
// owner, the budgeted probe and the offer.
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
	StageDisk      = "disk"      // persistent-cache probe, per block leader and peer lookup
	StagePeer      = "peer"      // ring-owner probe, per foreign block leader
	StageQueue     = "queue"     // enqueue → worker pickup wait
	StageCoalesced = "coalesced" // wait on another request's leader, per block
	StageCompile   = "compile"   // the whole CompileFn call inside a worker
)

// Failures a block's outcome can carry besides its compile's. Each is
// client-visible through the HTTP frontend, as a 503, so the messages
// read as the daemon's, not the package's.
var (
	// ErrShutdown fails every job still queued when the engine closes,
	// and every wait.
	ErrShutdown = errors.New("server shutting down")
	// ErrBusy fails the requests that joined an entry whose job
	// admission refused; its leader gets admission.ErrShed or ErrFull.
	ErrBusy = errors.New("compilation queue full")
	// ErrDeadline ends a joined wait at its request's deadline; the
	// shared entry still completes for everyone else.
	ErrDeadline = errors.New("request deadline exceeded awaiting compilation")
	// ErrInfeasible refuses a block whose tier's compile-time estimate
	// already exceeds what is left of its request's deadline.
	ErrInfeasible = errors.New("deadline below the current compile-time estimate for this tier")
)

// Fleet is the cluster seam, Config.Peers: the ring owner of a key under
// the current health view, a budgeted probe of a foreign owner, and the
// write-behind offer of a completed cacheable compilation. A failed probe
// is an outcome, never an error: the engine compiles locally. Offer must
// not block, since a compilation worker calls it for every cacheable
// result; dropping self-owned keys is the implementation's job.
// cluster.Client implements it.
type Fleet interface {
	Owner(key Key) (node string, self bool)
	Probe(ctx context.Context, owner string, key Key, traceparent string) (*BlockResponse, ProbeOutcome)
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
	// Peers, when non-nil, joins the engine to a fleet: a block leader
	// probes a foreign key's ring owner before compiling, and workers
	// offer it completed cacheable compilations (see Fleet).
	Peers Fleet
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

// Job is one block a request asks the engine for: a block of its parsed
// program with its lowered options and cache key, and the request's
// deadline, tier and priority. A multi-block program resolves one Job
// per block; hits, misses and coalescing are all per block.
type Job struct {
	Block *ir.Block
	Opts  compile.Options
	// Deadline is the request's: its start plus its clamped timeout. A
	// queued job compiles under it, and a wait joined onto another
	// request's entry ends at it, so queue wait and the request's
	// earlier blocks count against it.
	Deadline time.Time
	Key      Key
	// Tier labels the per-tier compile-duration observation and picks
	// the cost estimate deadline feasibility compares against.
	Tier string
	// Priority is the admission class to queue under.
	Priority admission.Priority
}

// queued is a Job its leader put on the admission queue: its entry, the
// request's trace (nil when tracing is off), which the compile and
// per-block stage spans hang off, and the open StageQueue stage the
// worker ends at pickup.
type queued struct {
	Job
	e     *entry
	tr    *obs.Trace
	queue obs.Stage
}

// Engine is the compilation kernel. Create with New, drive it through
// Resolve/Wait (the local request path) and Read/Install (the peer
// path), stop with Close.
type Engine struct {
	cfg     Config
	adm     *admission.Queue[*queued]
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
		adm: admission.NewQueue[*queued](admission.Config{
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
			en.cache.settle(j.Key, j.e, nil, ErrShutdown)
		}
		en.disk.close()
	})
}

// Install absorbs an externally compiled response (a peer's offer) into
// the memory cache as an already-completed entry, and into the
// persistent layer. It reports false, touching nothing, when any entry
// already exists for the key.
func (en *Engine) Install(key Key, resp *BlockResponse) bool {
	if !en.cache.install(key, resp) {
		return false
	}
	en.disk.put(key, resp)
	return true
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
		if en.ctx.Err() != nil {
			// Pop picks at random between a ready job and the cancelled
			// context. A job popped at shutdown fails as the ones Close
			// drains do, without compiling.
			en.cache.settle(j.Key, j.e, nil, ErrShutdown)
			continue
		}
		en.runJob(j)
	}
}

// runJob compiles one job and settles its entry for every waiter.
func (en *Engine) runJob(j *queued) {
	j.queue.End(nil)
	ctx, cancel := context.WithDeadline(en.ctx, j.Deadline)
	defer cancel()
	en.chaos.Delay(chaos.SlowCompile)
	stage := en.cfg.Stages.StartStage(j.tr, nil, StageCompile)
	compileSpan := stage.Span()
	// The compiler reports each stage's block, pass, start and duration
	// through the SpanObserver seam. Every record is a sample of the
	// stage histogram; on a traced job it is also a child of the compile
	// span. A program's jobs compile on several workers at once: the
	// histograms are atomic and the trace serializes appends.
	opts := j.Opts
	opts.SpanObserver = func(rec compile.StageSpan) {
		if sp := en.cfg.Stages.StageAt(j.tr, compileSpan, rec.Stage, rec.Start, rec.Duration); sp != nil {
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
		en.cache.settle(j.Key, j.e, nil, err)
		return
	}
	resp := buildBlockResponse(br, j.Key)
	// A result the request's deadline degraded is valid for that request
	// but not for the key: the deadline is not part of the key, so
	// caching it would serve the degraded schedule to later requests with
	// generous deadlines. It is served, never cached — in memory, on
	// disk, or on a peer — and its elapsed time, like a failed compile's,
	// measures the deadline, not the tier's cost.
	cacheable := resp.cacheable()
	if cacheable {
		// Feed the per-tier cost model deadline feasibility reads.
		en.est.Observe(j.Tier, len(j.Block.Instrs), elapsed)
	}
	if n := len(br.Degradations); n > 0 {
		compileSpan.Event("degraded")
		j.tr.SetDegraded()
		en.met.degradations.Add(int64(n))
	}
	if br.Policy != "" {
		compileSpan.SetAttr("policy", br.Policy)
	}
	if policy := resp.Summary.Policy; policy != "" {
		// The block's schedule length in issue slots (instructions plus
		// pass-1 starvation no-ops): the deterministic per-policy outcome.
		en.met.policyBlocks.With(policy).Inc()
		en.met.policyCycles.With(policy).Observe(float64(resp.Summary.Instrs + resp.Summary.VNops1))
	}
	if cacheable {
		en.disk.put(j.Key, resp)
		if en.cfg.Peers != nil {
			en.cfg.Peers.Offer(j.Key, resp)
		}
	}
	en.cache.settle(j.Key, j.e, resp, nil)
}
