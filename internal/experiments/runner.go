// Package experiments regenerates every table and figure of the paper's
// evaluation (§5), plus the ablations DESIGN.md calls out. Each table has
// a structured entry point returning typed rows and a Format function
// rendering the paper-style text table; cmd/paperrepro drives them all.
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"bsched/internal/compile"
	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/machine"
	"bsched/internal/memlat"
	"bsched/internal/pipeline"
	"bsched/internal/regalloc"
	"bsched/internal/sched"
	"bsched/internal/sim"
	"bsched/internal/stats"
)

// Runner holds the measurement configuration of §4.3.
type Runner struct {
	// Trials is the number of full simulations per block (paper: 30).
	Trials int
	// Resamples is the number of bootstrap sample means (paper: 100).
	Resamples int
	// Seed makes every experiment deterministic.
	Seed int64
	// Alias is the memory disambiguation mode programs are compiled with.
	Alias deps.AliasMode
	// Regalloc sizes the register file (zero value → default).
	Regalloc regalloc.Config
	// SimOpts configures the simulator (§6 extension experiments use it).
	SimOpts sim.Options
	// BalancedOpts configures the balanced weight computation of the
	// balanced and average schedulers.
	BalancedOpts core.Options
	// Heuristics toggles the scheduler tie-breaks (ablation A9).
	Heuristics sched.Heuristics
	// Allocator selects the register allocation backend (ablation A13).
	Allocator pipeline.AllocatorKind
	// SkipPass2 disables the post-allocation scheduling pass (A15).
	SkipPass2 bool
	// BlockBudget bounds the work per compiled block rung (0 → the
	// hardened default, negative → unlimited); see bsched/internal/compile.
	BlockBudget int64
	// Timeout bounds the wall-clock time of each program's compilation;
	// past it, remaining blocks degrade rather than abort.
	Timeout time.Duration

	// Degradations accumulates every ladder downgrade taken while
	// compiling, across all programs and schedulers; callers surface them.
	Degradations []compile.Event

	compiled map[string]*pipeline.ProgramResult
	// parent is the runner this one was derived from; it receives every
	// degradation this one records.
	parent *Runner
}

// DefaultRunner returns the paper's configuration.
func DefaultRunner() *Runner {
	return &Runner{Trials: 30, Resamples: 100, Seed: 1993}
}

// QuickRunner reduces trial counts for fast smoke runs and benchmarks.
func QuickRunner() *Runner {
	return &Runner{Trials: 10, Resamples: 40, Seed: 1993}
}

// SchedulerKind names a weighting strategy for compilation: a policy
// from the sched registry plus the knobs it consults.
type SchedulerKind struct {
	// Name is used in reports and cache keys.
	Name string
	// Policy is the sched registry name the compile runs under.
	Policy string
	// TradLatency is the traditional policy's fixed load latency.
	TradLatency float64
	// Core tunes the balanced weight computation.
	Core core.Options
}

// TraditionalSched returns the traditional scheduler at an optimistic
// latency.
func TraditionalSched(optLat float64) SchedulerKind {
	return SchedulerKind{
		Name:        fmt.Sprintf("traditional(%g)", optLat),
		Policy:      sched.PolicyTraditional,
		TradLatency: optLat,
	}
}

// BalancedSched returns the balanced scheduler.
func (r *Runner) BalancedSched() SchedulerKind {
	return SchedulerKind{Name: "balanced", Policy: sched.PolicyBalanced, Core: r.BalancedOpts}
}

// AverageSched returns the §3 average-LLP ablation scheduler.
func (r *Runner) AverageSched() SchedulerKind {
	return SchedulerKind{Name: "average", Policy: sched.PolicyAverage, Core: r.BalancedOpts}
}

// Compile compiles prog under the given scheduler, caching by
// (program, scheduler) so sweeps over systems reuse the result.
func (r *Runner) Compile(prog *ir.Program, kind SchedulerKind) *pipeline.ProgramResult {
	key := prog.Name + "/" + kind.Name
	if r.compiled == nil {
		r.compiled = make(map[string]*pipeline.ProgramResult)
	}
	if res, ok := r.compiled[key]; ok {
		return res
	}
	hardened, err := compile.Run(context.Background(), prog, compile.Options{
		Policy:      kind.Policy,
		TradLatency: kind.TradLatency,
		Core:        kind.Core,
		Alias:       r.Alias,
		Regalloc:    r.Regalloc,
		Heuristics:  r.Heuristics,
		Allocator:   r.Allocator,
		SkipPass2:   r.SkipPass2,
		BlockBudget: r.BlockBudget,
		Timeout:     r.Timeout,
	})
	if err != nil {
		// The workloads are trusted inputs; a hard error here is a bug.
		panic(fmt.Sprintf("experiments: compile %s: %v", key, err))
	}
	for p := r; p != nil; p = p.parent {
		p.Degradations = append(p.Degradations, hardened.Degradations...)
	}
	res := hardened.Pipeline()
	r.compiled[key] = res
	return res
}

// rng derives a deterministic random stream for a measurement context.
func (r *Runner) rng(parts ...string) *rand.Rand {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return rand.New(rand.NewSource(r.Seed ^ int64(h.Sum64())))
}

// Measurement aggregates one compiled program's behaviour on one
// processor/memory configuration.
type Measurement struct {
	// Runtimes holds Resamples bootstrap program runtimes (freq-weighted
	// sums of block sample means), the unit paired comparisons work on.
	Runtimes []float64
	// MeanCycles is the mean program runtime (freq-weighted).
	MeanCycles float64
	// MeanInterlocks is the mean freq-weighted interlock cycle count.
	MeanInterlocks float64
	// MIns is the freq-weighted instruction count ("instructions
	// executed, in millions" when block frequencies are in millions).
	MIns float64
	// SpillPct is the percentage of executed instructions that is spill
	// code.
	SpillPct float64
}

// InterlockPct returns interlock cycles as a percentage of all cycles
// (the TI%/BI% columns of Tables 3 and 5).
func (m Measurement) InterlockPct() float64 {
	if m.MeanCycles == 0 {
		return 0
	}
	return m.MeanInterlocks / m.MeanCycles * 100
}

// Measure simulates a compiled program on a processor and memory system
// following §4.3: per block, Trials independent runtimes, bootstrap to
// Resamples sample means, scale by profiled frequency, and sum across
// blocks. Blocks are measured concurrently; every block draws from its
// own deterministic random stream, so results are independent of the
// execution order.
func (r *Runner) Measure(compiled *pipeline.ProgramResult, kindName string, proc machine.Config, mem memlat.Model) Measurement {
	m := Measurement{
		Runtimes: make([]float64, r.Resamples),
		MIns:     compiled.WeightedInstrs(),
		SpillPct: compiled.SpillPct(),
	}
	type blockResult struct {
		means      []float64
		cycles     float64
		interlocks float64
	}
	results := make([]blockResult, len(compiled.Blocks))
	var wg sync.WaitGroup
	for idx, br := range compiled.Blocks {
		wg.Add(1)
		go func(idx int, blk *ir.Block) {
			defer wg.Done()
			mem := memlat.ForStream(mem) // private instance for stateful models
			rng := r.rng(kindName, blk.Label, proc.Name(), mem.Name())
			runtimes := make([]float64, r.Trials)
			interlocks := 0.0
			for t := 0; t < r.Trials; t++ {
				st := sim.RunBlock(blk.Instrs, proc, mem, rng, r.SimOpts)
				runtimes[t] = float64(st.Cycles)
				interlocks += float64(st.Interlocks)
			}
			means := stats.BootstrapMeans(runtimes, r.Resamples, rng)
			results[idx] = blockResult{
				means:      stats.Scale(means, blk.Freq),
				cycles:     stats.Mean(runtimes) * blk.Freq,
				interlocks: interlocks / float64(r.Trials) * blk.Freq,
			}
		}(idx, br.Block)
	}
	wg.Wait()
	for _, res := range results {
		stats.AddInto(m.Runtimes, res.means)
		m.MeanCycles += res.cycles
		m.MeanInterlocks += res.interlocks
	}
	return m
}

// Comparison is the outcome of one balanced-vs-traditional experiment
// cell.
type Comparison struct {
	// Imp is the percentage improvement of balanced over traditional with
	// its 95% confidence interval.
	Imp stats.Improvement
	// Trad and Bal are the two measurements.
	Trad, Bal Measurement
}

// Compare compiles prog with both schedulers and measures them on the
// given processor and system, pairing bootstrap means per §4.3.
func (r *Runner) Compare(prog *ir.Program, optLat float64, proc machine.Config, mem memlat.Model) Comparison {
	tk := TraditionalSched(optLat)
	bk := r.BalancedSched()
	trad := r.Measure(r.Compile(prog, tk), tk.Name, proc, mem)
	bal := r.Measure(r.Compile(prog, bk), bk.Name, proc, mem)
	return Comparison{
		Imp:  stats.PairedImprovement(trad.Runtimes, bal.Runtimes),
		Trad: trad,
		Bal:  bal,
	}
}

// CompareKinds measures two arbitrary scheduler kinds (used by the
// ablations), reporting the improvement of b over a.
func (r *Runner) CompareKinds(prog *ir.Program, a, b SchedulerKind, proc machine.Config, mem memlat.Model) Comparison {
	ma := r.Measure(r.Compile(prog, a), a.Name, proc, mem)
	mb := r.Measure(r.Compile(prog, b), b.Name, proc, mem)
	return Comparison{
		Imp:  stats.PairedImprovement(ma.Runtimes, mb.Runtimes),
		Trad: ma,
		Bal:  mb,
	}
}
