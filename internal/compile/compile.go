// Package compile is the compiler driver: the one entry point through
// which the tools (bsched, bsim, paperrepro), the bschedd daemon, the
// experiments and the examples compile, running the two scheduling
// passes around register allocation that bsched/internal/pipeline
// describes.
//
// Beyond running the passes, the driver makes three guarantees:
//
//   - Panic-free boundaries. A panic anywhere in dependence construction,
//     weight computation, scheduling or register allocation is recovered
//     at the stage boundary and reported as a typed *Error carrying the
//     stage, block label and (when attributable) instruction index.
//
//   - Bounded work. Every block compiles under a context.Context and a
//     per-block work budget (bsched/internal/budget). Cancellation and
//     budget exhaustion are observed inside the quadratic loops of the
//     balanced weight computation and the list scheduler.
//
//   - Graceful degradation. A stage that exceeds its budget does not
//     abort the compilation; it falls to a cheaper strategy — the
//     policy's weights → fixed-latency weights, and list scheduling →
//     source order (always a valid topological order) — recording every
//     downgrade in BlockResult.Degradations so callers can surface them.
//
// Options.Policy is the one weighting selector (empty means balanced)
// and Options.SpanObserver the one stage-timing seam.
//
// Register pressure failures (spill pool exhaustion) remain hard errors:
// no cheaper strategy can conjure registers, so they surface as *Error
// rather than a rung.
package compile

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"bsched/internal/budget"
	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/pipeline"
	"bsched/internal/regalloc"
	"bsched/internal/sched"
	"bsched/internal/sched/features"
)

// DefaultBlockBudget is the per-rung work allowance a block gets when
// Options.BlockBudget is zero. It is far above what any realistic block
// needs (the charge unit is roughly one loop iteration) while still
// bounding adversarial inputs to well under a second of work.
const DefaultBlockBudget = 4 << 20

// Options configures a hardened compilation. The zero value is a valid
// balanced compilation with default budgets.
type Options struct {
	// Policy selects the weighting policy from the sched registry by
	// name ("balanced", "traditional", "average", "balanced-dense",
	// "critical-path"); empty means balanced. The sentinel
	// sched.PolicyAuto ("auto") asks the static decision rule to pick a
	// policy per block from the block's features; the pick is made once,
	// on the pass-1 DAG, and reused for pass 2 so both passes weight
	// consistently. Unknown names are rejected by validation.
	Policy string
	// TradLatency is the fixed load latency for the traditional policy
	// and for the fixed-latency floor of the degradation ladder. Zero
	// means 2 (the paper's cache hit time); values below 1 are rejected.
	TradLatency float64
	// Core tunes the balanced weight computation of the policies built
	// on it. Core.Chances = core.ChancesUnionFind swaps the exact Chances
	// DP for the paper's union-find sketch (ablation A2).
	Core core.Options
	// Alias selects the memory disambiguation mode (§4.2).
	Alias deps.AliasMode
	// Regalloc sizes the register file. Zero value → regalloc.DefaultConfig.
	Regalloc regalloc.Config
	// SkipRegalloc compiles with scheduling pass 1 only.
	SkipRegalloc bool
	// Heuristics toggles the scheduler's tie-break heuristics.
	Heuristics sched.Heuristics
	// Allocator selects the register allocation backend.
	Allocator pipeline.AllocatorKind
	// SkipPass2 skips the post-allocation scheduling pass.
	SkipPass2 bool
	// BlockBudget is the work allowance in abstract units granted to each
	// budgeted stage rung of each block. Zero means DefaultBlockBudget;
	// negative means unlimited (only the context bounds the work).
	BlockBudget int64
	// Timeout, when positive, bounds the wall-clock time of a Run or
	// RunBlock call; past it, remaining blocks compile through the
	// cheapest rungs of the ladder.
	Timeout time.Duration
	// Parallelism bounds how many blocks Run compiles concurrently.
	// Zero means runtime.GOMAXPROCS(0); values below zero mean 1
	// (sequential). Results, degradation order and error attribution are
	// deterministic regardless of the setting: blocks land in program
	// order and a hard error in an earlier block wins over one in a
	// later block.
	Parallelism int
	// SpanObserver, when non-nil, receives one completed StageSpan per
	// pipeline stage of every block (the Stage* constants) as the stage
	// finishes: the stage name, block label, pass, start time and
	// duration. It is the one stage-timing seam: the bschedd daemon
	// feeds its per-stage latency histograms from it and, for traced
	// requests, turns each record into a child span of the compile
	// span. Records may arrive from multiple goroutines at once when
	// blocks compile in parallel, so the observer must be fast and safe
	// for concurrent use. It is called on the panic and degradation
	// paths too: a stage that fell down the ladder still reports the
	// time it burned.
	SpanObserver StageSpanObserver
}

// StageSpan is one completed pipeline stage of one block, with enough
// identity to render it as a span in a request trace.
type StageSpan struct {
	// Block is the label of the block the stage ran for.
	Block string
	// Pass is the scheduling pass (1 or 2); 0 for regalloc, which runs
	// between the passes.
	Pass int
	// Stage is one of the Stage* constants.
	Stage string
	// Start and Duration are the stage's wall-clock bounds.
	Start    time.Time
	Duration time.Duration
}

// StageSpanObserver receives one StageSpan per completed pipeline stage
// of every block. Implementations must be safe for concurrent use; see
// Options.SpanObserver.
type StageSpanObserver func(StageSpan)

// Stage names carried by a StageSpan. Each scheduling pass reports
// deps, weights and schedule once; regalloc reports once per block.
const (
	StageDeps     = "deps"     // dependence-DAG construction
	StageWeights  = "weights"  // balanced/traditional weight computation
	StageSchedule = "schedule" // list scheduling
	StageRegalloc = "regalloc" // register allocation
)

func (o *Options) tradLatency() float64 {
	if o.TradLatency == 0 {
		return 2
	}
	return o.TradLatency
}

func (o *Options) blockBudget() int64 {
	switch {
	case o.BlockBudget == 0:
		return DefaultBlockBudget
	case o.BlockBudget < 0:
		return 0 // budget.New treats <= 0 as unlimited
	}
	return o.BlockBudget
}

func (o *Options) parallelism() int {
	if o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

func (o *Options) validate() error {
	if o.TradLatency != 0 && !(o.TradLatency >= 1) { // also rejects NaN
		return fmt.Errorf("traditional load latency %g out of range [1, ∞)", o.TradLatency)
	}
	if o.Policy != "" && o.Policy != sched.PolicyAuto {
		if _, ok := sched.PolicyByName(o.Policy); !ok {
			return fmt.Errorf("unknown scheduling policy %q (want %s|%s)",
				o.Policy, strings.Join(sched.PolicyNames(), "|"), sched.PolicyAuto)
		}
	}
	return nil
}

func (o *Options) regallocConfig() regalloc.Config {
	if o.Regalloc == (regalloc.Config{}) {
		return regalloc.DefaultConfig()
	}
	return o.Regalloc
}

// Ladder rung names, used in Event.From / Event.To.
const (
	RungFixedLat  = "fixed-latency"
	RungListSched = "list-scheduler"
	RungSrcOrder  = "source-order"
	// RungPolicyPrefix prefixes the policy name in the From rung of a
	// weights degradation (e.g. "policy:balanced" → "fixed-latency").
	RungPolicyPrefix = "policy:"
)

// Event records one degradation: a stage of a block's compilation that
// fell from one strategy to a cheaper one. Its JSON form is the one the
// daemon serves, caches on disk and exchanges with peers.
type Event struct {
	// Block is the label of the affected block.
	Block string `json:"block"`
	// Pass is the scheduling pass (1 or 2).
	Pass int `json:"pass"`
	// Stage is the degraded stage: "weights" or "schedule".
	Stage string `json:"stage"`
	// From and To are ladder rung names (Rung* constants).
	From string `json:"from"`
	To   string `json:"to"`
	// Reason is the triggering error, rendered.
	Reason string `json:"reason"`
	// Deadline reports that the downgrade was forced by expiry or
	// cancellation of the surrounding context rather than the work
	// budget. Budget-driven downgrades are deterministic for a given
	// input and options; deadline-driven ones depend on wall-clock
	// state, so rerunning the same input may land on a better rung —
	// callers that memoize results should not reuse such a result.
	Deadline bool `json:"deadline,omitempty"`
	// Policy names the weighting policy the block was compiling under
	// when the downgrade hit ("balanced", "critical-path", …), so
	// per-policy degradation behaviour is attributable even after the
	// ladder has flattened the weighting to a cheaper rung.
	Policy string `json:"policy,omitempty"`
}

// String renders "block b3 pass 1: weights policy:balanced → fixed-latency (…)".
func (e Event) String() string {
	return fmt.Sprintf("block %s pass %d: %s %s → %s (%s)", e.Block, e.Pass, e.Stage, e.From, e.To, e.Reason)
}

// BlockResult is the hardened compilation outcome for one block.
type BlockResult struct {
	// Block is the final scheduled block; instructions are clones, the
	// input block is never mutated.
	Block *ir.Block
	// Spill reports register-allocator activity (zero when SkipRegalloc).
	Spill regalloc.Stats
	// Pass1 and Pass2 are the scheduling results (Pass2 nil when
	// SkipRegalloc or SkipPass2).
	Pass1, Pass2 *sched.Result
	// Degradations lists every ladder downgrade taken, in order. Empty
	// means the block compiled at full strength.
	Degradations []Event
	// WorkUsed totals the work units charged across all budgeted rungs.
	WorkUsed int64
	// Policy names the weighting policy the block's schedule used:
	// Options.Policy, "balanced" when that is empty, or the decision
	// rule's per-block pick under "auto". Ladder downgrades do not
	// change it — the policy is what was asked for, the Degradations
	// record what was delivered.
	Policy string
}

// Degraded reports whether any stage fell down the ladder.
func (r *BlockResult) Degraded() bool { return len(r.Degradations) > 0 }

// Result is the hardened compilation outcome for a whole program.
type Result struct {
	// Program is the final scheduled program.
	Program *ir.Program
	// Blocks holds the per-block results in program order.
	Blocks []*BlockResult
	// Degradations aggregates every block's downgrades.
	Degradations []Event
}

// Pipeline converts the result into bsched/internal/pipeline's result
// type, for callers (the experiment runner, the measurement helpers)
// whose downstream analysis is written against it.
func (r *Result) Pipeline() *pipeline.ProgramResult {
	out := &pipeline.ProgramResult{Program: r.Program}
	for _, br := range r.Blocks {
		out.Blocks = append(out.Blocks, &pipeline.BlockResult{
			Block: br.Block,
			Spill: br.Spill,
			Pass1: br.Pass1,
			Pass2: br.Pass2,
		})
	}
	return out
}

// RunBlock compiles one basic block through the hardened pipeline. The
// returned error, if any, is always an *Error; scheduling never fails
// (it degrades), so errors come from invalid options, invalid input, or
// register pressure.
func RunBlock(ctx context.Context, b *ir.Block, opts Options) (res *BlockResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, recovered("compile", b.Label, r)
		}
	}()
	if err := opts.validate(); err != nil {
		return nil, newError("options", "", err)
	}
	if b == nil {
		return nil, newError("input", "", fmt.Errorf("nil block"))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	return compileBlock(ctx, b, opts)
}

// Run compiles every block of the program. Blocks are compiled
// independently, up to Options.Parallelism at a time (default
// GOMAXPROCS); the first hard error in program order aborts (scheduling
// degradations do not — they accumulate in Result.Degradations). The
// result is deterministic in program order regardless of parallelism.
func Run(ctx context.Context, p *ir.Program, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, recovered("compile", "", r)
		}
	}()
	if err := opts.validate(); err != nil {
		return nil, newError("options", "", err)
	}
	if p == nil {
		return nil, newError("input", "", fmt.Errorf("nil program"))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}

	// Flatten to a task list so the worker loop is shape-agnostic.
	type task struct {
		fn    int
		block *ir.Block
	}
	var tasks []task
	for fi, f := range p.Funcs {
		for _, b := range f.Blocks {
			tasks = append(tasks, task{fn: fi, block: b})
		}
	}

	results := make([]*BlockResult, len(tasks))
	errs := make([]error, len(tasks))
	if par := opts.parallelism(); par <= 1 || len(tasks) <= 1 {
		for i, t := range tasks {
			if results[i], errs[i] = compileBlockRecover(ctx, t.block, opts); errs[i] != nil {
				// Sequential fast path: nothing later can outrank an
				// earlier error, so abort immediately.
				return nil, errs[i]
			}
		}
	} else {
		sem := make(chan struct{}, par)
		var wg sync.WaitGroup
		for i, t := range tasks {
			sem <- struct{}{}
			wg.Add(1)
			go func(i int, b *ir.Block) {
				defer wg.Done()
				defer func() { <-sem }()
				results[i], errs[i] = compileBlockRecover(ctx, b, opts)
			}(i, t.block)
		}
		wg.Wait()
		// Blocks are never cancelled mid-flight on a sibling's failure
		// (cancellation would change which rungs other blocks land on),
		// so the first error in program order is the same one the
		// sequential path reports.
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	out := &Result{Program: &ir.Program{Name: p.Name}}
	for _, f := range p.Funcs {
		out.Program.Funcs = append(out.Program.Funcs, &ir.Func{Name: f.Name})
	}
	for i, br := range results {
		out.Blocks = append(out.Blocks, br)
		out.Degradations = append(out.Degradations, br.Degradations...)
		nf := out.Program.Funcs[tasks[i].fn]
		nf.Blocks = append(nf.Blocks, br.Block)
	}
	return out, nil
}

// compileBlockRecover is compileBlock behind Run's panic boundary, safe
// to call from a worker goroutine (a panic escaping a goroutine would
// kill the process, not the request).
func compileBlockRecover(ctx context.Context, b *ir.Block, opts Options) (res *BlockResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, recovered("compile", b.Label, r)
		}
	}()
	return compileBlock(ctx, b, opts)
}

// blockCompiler carries the per-block compilation state.
type blockCompiler struct {
	opts      Options
	buildOpts deps.BuildOptions
	label     string
	master    *budget.Budget // forked per rung; never charged directly
	res       *BlockResult
}

func compileBlock(ctx context.Context, b *ir.Block, opts Options) (*BlockResult, error) {
	c := &blockCompiler{
		opts:      opts,
		buildOpts: deps.BuildOptions{Alias: opts.Alias},
		label:     b.Label,
		master:    budget.New(ctx, opts.blockBudget()),
		res:       &BlockResult{},
	}

	work := b.Clone()
	ir.Renumber(work)

	scheduled, pass1 := c.schedulePass(work, 1)
	c.res.Pass1 = pass1
	if opts.SkipRegalloc {
		c.res.Block = scheduled
		return c.res, nil
	}

	ir.Renumber(scheduled)
	if err := c.regalloc(scheduled); err != nil {
		return nil, err
	}

	if opts.SkipPass2 {
		c.res.Block = scheduled
		return c.res, nil
	}
	final, pass2 := c.schedulePass(scheduled, 2)
	c.res.Block = final
	c.res.Pass2 = pass2
	return c.res, nil
}

// fork hands out a fresh budget rung and records the previous rung's
// usage in the result's work total.
func (c *blockCompiler) fork() *budget.Budget { return c.master.Fork() }

// timeStage starts a stage timer and returns the stop function to
// defer; with no observer both halves are free. pass is the scheduling
// pass (0 for regalloc), forwarded to the span observer.
func (c *blockCompiler) timeStage(stage string, pass int) func() {
	if c.opts.SpanObserver == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		c.opts.SpanObserver(StageSpan{
			Block: c.label, Pass: pass, Stage: stage, Start: start, Duration: time.Since(start),
		})
	}
}

func (c *blockCompiler) event(pass int, stage, from, to string, cause error) {
	c.res.Degradations = append(c.res.Degradations, Event{
		Block: c.label, Pass: pass, Stage: stage, From: from, To: to, Reason: cause.Error(),
		Policy:   c.res.Policy,
		Deadline: errors.Is(cause, context.Canceled) || errors.Is(cause, context.DeadlineExceeded),
	})
}

// resolvePolicy fixes the block's weighting policy, once: Options.Policy,
// balanced when that is empty, and under "auto" the decision rule over
// the pass-1 DAG's features. The resolution is cached so pass 2 reuses
// pass 1's pick. g may be nil (DAG construction itself degraded); an
// "auto" block then falls back to balanced, the rule's default arm.
func (c *blockCompiler) resolvePolicy(g *deps.Graph) string {
	if c.res.Policy != "" {
		return c.res.Policy
	}
	switch c.opts.Policy {
	case "":
		c.res.Policy = sched.PolicyBalanced
	case sched.PolicyAuto:
		if g == nil {
			c.res.Policy = sched.PolicyBalanced
		} else {
			c.res.Policy = sched.Decide(features.Extract(g))
		}
	default:
		c.res.Policy = c.opts.Policy
	}
	return c.res.Policy
}

// schedulePass runs one scheduling pass (DAG build, weights, list
// scheduling) with the full degradation ladder. It cannot fail: the
// bottom of every ladder is source order, which is always a valid
// schedule of the pass's input block.
func (c *blockCompiler) schedulePass(work *ir.Block, pass int) (*ir.Block, *sched.Result) {
	g, err := c.buildDeps(work, pass)
	if err != nil {
		// No DAG → nothing to schedule against; keep the input order.
		c.resolvePolicy(nil)
		c.event(pass, "schedule", RungListSched, RungSrcOrder, err)
		return sourceOrder(work)
	}
	c.resolvePolicy(g)

	weights := c.weights(g, pass)
	res, err := c.schedule(g, weights, pass)
	if err != nil {
		c.event(pass, "schedule", RungListSched, RungSrcOrder, err)
		return sourceOrder(work)
	}
	nb := &ir.Block{Label: work.Label, Freq: work.Freq, Instrs: res.Order, LiveOut: work.LiveOut}
	return nb, res
}

// weights runs the weight-computation ladder for the block's resolved
// policy: one budgeted rung through the sched registry, falling
// straight to fixed-latency weights, which are O(n) and unbudgeted.
func (c *blockCompiler) weights(g *deps.Graph, pass int) []float64 {
	defer c.timeStage(StageWeights, pass)()
	policy := c.resolvePolicy(g)
	w, err := c.tryPolicyWeights(g, policy)
	if err == nil {
		return w
	}
	c.event(pass, "weights", RungPolicyPrefix+policy, RungFixedLat, err)
	return sched.TraditionalWeights(g, c.opts.tradLatency())
}

// tryPolicyWeights runs one registry policy's weighting as a single
// budgeted rung behind the panic boundary, rejecting wrong-length
// results (the raw scheduler treats those as a programmer error and
// panics; here they take the ladder).
func (c *blockCompiler) tryPolicyWeights(g *deps.Graph, policy string) (w []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			w, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	p, ok := sched.PolicyByName(policy)
	if !ok {
		// Unreachable for validated options; the ladder still absorbs it.
		return nil, fmt.Errorf("unknown policy %q", policy)
	}
	cfg := sched.PolicyConfig{Core: c.opts.Core, TradLatency: c.opts.tradLatency()}
	wb := c.fork()
	defer func() { c.res.WorkUsed += wb.Used() }()
	w, err = p.Weights(g, cfg, wb)
	if err != nil {
		return nil, err
	}
	if len(w) != g.N() {
		return nil, fmt.Errorf("policy %q returned %d weights for %d nodes", policy, len(w), g.N())
	}
	return w, nil
}

// buildDeps constructs the code DAG under a budget rung.
func (c *blockCompiler) buildDeps(work *ir.Block, pass int) (g *deps.Graph, err error) {
	defer c.timeStage(StageDeps, pass)()
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	wb := c.fork()
	defer func() { c.res.WorkUsed += wb.Used() }()
	return deps.BuildBudgeted(work, c.buildOpts, wb)
}

// schedule list-schedules under a budget rung, recovering panics.
func (c *blockCompiler) schedule(g *deps.Graph, weights []float64, pass int) (res *sched.Result, err error) {
	defer c.timeStage(StageSchedule, pass)()
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	wb := c.fork()
	defer func() { c.res.WorkUsed += wb.Used() }()
	return sched.Schedule(g, weights, c.opts.Heuristics, wb)
}

// regalloc runs register allocation; its failures are hard errors
// (pressure cannot be degraded away), reported as *Error with the
// offending instruction index when the allocator attributes one.
func (c *blockCompiler) regalloc(scheduled *ir.Block) (err error) {
	defer c.timeStage(StageRegalloc, 0)()
	defer func() {
		if r := recover(); r != nil {
			err = recovered("regalloc", c.label, r)
		}
	}()
	alloc := regalloc.Run
	if c.opts.Allocator == pipeline.AllocColoring {
		alloc = regalloc.RunColoring
	}
	spill, err := alloc(scheduled, c.opts.regallocConfig())
	if err != nil {
		return newError("regalloc", c.label, err)
	}
	c.res.Spill = spill
	return nil
}

// sourceOrder is the bottom of the scheduling ladder: the pass's input
// order, verbatim. The input of pass 1 is the source block and the input
// of pass 2 is the allocated block — both are executable orders, so this
// rung always yields a valid schedule.
func sourceOrder(work *ir.Block) (*ir.Block, *sched.Result) {
	order := make([]*ir.Instr, len(work.Instrs))
	copy(order, work.Instrs)
	perm := make([]int, len(order))
	for i := range perm {
		perm[i] = i
	}
	nb := &ir.Block{Label: work.Label, Freq: work.Freq, Instrs: order, LiveOut: work.LiveOut}
	return nb, &sched.Result{Order: order, Perm: perm}
}
