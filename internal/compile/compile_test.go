package compile

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bsched/internal/budget"
	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/interp"
	"bsched/internal/ir"
	"bsched/internal/machine"
	"bsched/internal/memlat"
	"bsched/internal/pipeline"
	"bsched/internal/regalloc"
	"bsched/internal/sched"
	"bsched/internal/sim"
	"bsched/internal/workload"
)

// chainBlock builds `chains` independent load chains of `length` loads
// each: plenty of inter-chain parallelism (every other chain is in every
// load's G_ind), which makes the component analysis the dominant cost.
func chainBlock(t *testing.T, chains, length int) *ir.Block {
	t.Helper()
	var sb strings.Builder
	v := 0
	for c := 0; c < chains; c++ {
		base := fmt.Sprintf("r%d", c+1)
		for i := 0; i < length; i++ {
			fmt.Fprintf(&sb, "v%d = load s%d[%s+0]\n", v, c, base)
			base = fmt.Sprintf("v%d", v)
			v++
		}
	}
	b, err := ir.ParseBlock(sb.String())
	if err != nil {
		t.Fatalf("chainBlock: %v", err)
	}
	return b
}

func blockRegs(b *ir.Block) []ir.Reg {
	seen := map[ir.Reg]bool{}
	var out []ir.Reg
	for _, in := range b.Instrs {
		if d := in.Def(); d != ir.NoReg && !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// checkSemantics asserts the compiled order computes the same memory and
// register state as the source block.
func checkSemantics(t *testing.T, src *ir.Block, res *BlockResult) {
	t.Helper()
	if len(res.Block.Instrs) != len(src.Instrs) {
		t.Fatalf("lost instructions: %d vs %d", len(res.Block.Instrs), len(src.Instrs))
	}
	orig, err := interp.Run(src.Instrs, nil)
	if err != nil {
		t.Fatalf("interp source: %v", err)
	}
	got, err := interp.Run(res.Block.Instrs, nil)
	if err != nil {
		t.Fatalf("interp compiled: %v", err)
	}
	if !interp.MemEqual(orig, got) {
		t.Fatalf("memory state changed\nsource:\n%s\ncompiled:\n%s", src, res.Block)
	}
	if !interp.RegsEqualOn(orig, got, blockRegs(src)) {
		t.Fatalf("register values changed")
	}
}

func eventSummaries(evs []Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = fmt.Sprintf("%s:%s->%s", e.Stage, e.From, e.To)
	}
	return out
}

// ladderCosts measures what the balanced weights of a pass-1 compile of
// blk cost, so budget thresholds in tests are exact rather than magic
// numbers, and checks that DAG construction and scheduling each fit in
// one unit less. It returns blk's DAG and the weights cost.
func ladderCosts(t *testing.T, blk *ir.Block) (*deps.Graph, int64) {
	t.Helper()
	g := deps.Build(blk, deps.BuildOptions{})
	wb := budget.New(nil, 0)
	w, err := core.WeightsBudgeted(g, core.Options{}, wb)
	if err != nil {
		t.Fatalf("unlimited weights: %v", err)
	}
	db := budget.New(nil, 0)
	if _, err := deps.BuildBudgeted(blk, deps.BuildOptions{}, db); err != nil {
		t.Fatalf("unlimited deps: %v", err)
	}
	sb := budget.New(nil, 0)
	if _, err := sched.Schedule(g, w, sched.Heuristics{}, sb); err != nil {
		t.Fatalf("unlimited schedule: %v", err)
	}
	// The test block must put the budget pressure in the weights stage:
	// deps and scheduling fit in one unit less than the weights (each
	// rung gets its own forked allowance).
	if db.Used() > wb.Used()-1 || sb.Used() > wb.Used()-1 {
		t.Fatalf("test block has the wrong cost profile: weights=%d deps=%d sched=%d",
			wb.Used(), db.Used(), sb.Used())
	}
	return g, wb.Used()
}

// TestDegradationLadder forces each rung of the ladder in turn by
// shrinking the block budget, asserting both the recorded events and
// that every rung still produces a semantically correct schedule.
func TestDegradationLadder(t *testing.T) {
	blk := chainBlock(t, 6, 8)
	ctx := context.Background()
	_, weightsUsed := ladderCosts(t, blk)

	run := func(t *testing.T, budget int64, wantEvents ...string) *BlockResult {
		t.Helper()
		res, err := RunBlock(ctx, blk, Options{SkipRegalloc: true, BlockBudget: budget})
		if err != nil {
			t.Fatalf("RunBlock: %v", err)
		}
		got := eventSummaries(res.Degradations)
		if fmt.Sprint(got) != fmt.Sprint(wantEvents) {
			t.Fatalf("degradations = %v, want %v", got, wantEvents)
		}
		checkSemantics(t, blk, res)
		return res
	}

	t.Run("unlimited", func(t *testing.T) {
		res := run(t, -1)
		if res.Degraded() {
			t.Fatal("unlimited budget degraded")
		}
		if res.WorkUsed == 0 {
			t.Fatal("no work recorded")
		}
	})
	t.Run("to-fixed-latency", func(t *testing.T) {
		// Exactly the weights cost fits; one unit short, the balanced
		// rung trips and the fixed-latency floor (unbudgeted) takes
		// over; scheduling still fits.
		run(t, weightsUsed)
		run(t, weightsUsed-1, "weights:policy:balanced->fixed-latency")
	})
	t.Run("to-source-order", func(t *testing.T) {
		// A one-unit budget cannot even build the DAG: the block falls
		// straight to source order and must come back verbatim.
		res := run(t, 1, "schedule:list-scheduler->source-order")
		// The input is cloned, so compare by rendering.
		for i, in := range res.Block.Instrs {
			if in.String() != blk.Instrs[i].String() {
				t.Fatalf("source order not preserved at %d: %s vs %s", i, in, blk.Instrs[i])
			}
		}
	})
}

// TestCancelledContextDegrades: a dead context must not abort the
// compilation — blocks big enough to hit the amortized context poll fall
// down the ladder and still come out scheduled.
func TestCancelledContextDegrades(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("v0 = const 7\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "store ?[%d], v0\n", i*8)
	}
	blk, err := ir.ParseBlock(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunBlock(ctx, blk, Options{SkipRegalloc: true, Alias: deps.AliasConservative, BlockBudget: -1})
	if err != nil {
		t.Fatalf("RunBlock: %v", err)
	}
	if !res.Degraded() {
		t.Fatal("cancelled context produced no degradations")
	}
	if len(res.Block.Instrs) != len(blk.Instrs) {
		t.Fatalf("lost instructions: %d vs %d", len(res.Block.Instrs), len(blk.Instrs))
	}
	for _, e := range res.Degradations {
		if !strings.Contains(e.Reason, "context canceled") {
			t.Fatalf("degradation reason %q does not mention the context", e.Reason)
		}
		if !e.Deadline {
			t.Fatalf("context-forced degradation %v not flagged Deadline", e)
		}
	}
}

// TestFrontDoorMatchesPipeline: with no budget pressure the driver
// produces byte-identical output to the driver it replaced
// (refCompileBlock), over every block of workload.Corpus with 256 Rich
// blocks (410 blocks; the full 600 take about 3 s). The options rotate
// per block: both policies, both alias modes, both allocators,
// SkipRegalloc, SkipPass2, each tie-break off in turn, and a 12/3
// register file on every third block. When one side fails, both must.
func TestFrontDoorMatchesPipeline(t *testing.T) {
	names, blocks := workload.Corpus(256)
	for i, blk := range blocks {
		opts := Options{Policy: sched.PolicyBalanced}
		weigh := func(g *deps.Graph) []float64 { return core.Weights(g, core.Options{}) }
		if i%2 == 1 {
			opts.Policy = sched.PolicyTraditional
			weigh = func(g *deps.Graph) []float64 { return sched.TraditionalWeights(g, 2) }
		}
		if i/2%2 == 1 {
			opts.Alias = deps.AliasConservative
		}
		if i/4%2 == 1 {
			opts.Allocator = pipeline.AllocColoring
		}
		switch i / 8 % 3 {
		case 1:
			opts.SkipRegalloc = true
		case 2:
			opts.SkipPass2 = true
		}
		switch i / 24 % 3 {
		case 1:
			opts.Heuristics.NoPressureTie = true
		case 2:
			opts.Heuristics.NoExposeTie = true
		}
		if i%3 == 2 {
			opts.Regalloc = regalloc.Config{Regs: 12, SpillPool: 3}
		}
		want, wantErr := refCompileBlock(blk, weigh, opts)
		got, err := RunBlock(context.Background(), blk, opts)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s %+v: driver error %v, reference error %v", names[i], opts, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.Degraded() {
			t.Fatalf("%s %+v: default budget degraded: %v", names[i], opts, got.Degradations)
		}
		if got.Block.String() != want.Block.String() || got.Spill != want.Spill {
			t.Fatalf("%s %+v: driver diverged from the reference\nwant (%+v):\n%s\ngot (%+v):\n%s",
				names[i], opts, want.Spill, want.Block, got.Spill, got.Block)
		}
	}
}

func TestErrorBoundaries(t *testing.T) {
	ctx := context.Background()
	blk := chainBlock(t, 2, 3)

	asCompileError := func(t *testing.T, err error, stage string) *Error {
		t.Helper()
		var ce *Error
		if !errors.As(err, &ce) {
			t.Fatalf("error %v (%T) is not a *compile.Error", err, err)
		}
		if ce.Stage != stage {
			t.Fatalf("stage = %q, want %q", ce.Stage, stage)
		}
		return ce
	}

	t.Run("bad-options", func(t *testing.T) {
		_, err := RunBlock(ctx, blk, Options{TradLatency: 0.5})
		asCompileError(t, err, "options")
	})
	t.Run("nil-block", func(t *testing.T) {
		_, err := RunBlock(ctx, nil, Options{})
		asCompileError(t, err, "input")
	})
	t.Run("nil-program", func(t *testing.T) {
		_, err := Run(ctx, nil, Options{})
		asCompileError(t, err, "input")
	})
	t.Run("bad-regalloc-config", func(t *testing.T) {
		_, err := RunBlock(ctx, blk, Options{Regalloc: regalloc.Config{Regs: 8, SpillPool: 2}})
		asCompileError(t, err, "regalloc")
	})
	t.Run("pressure-error-instr", func(t *testing.T) {
		err := newError("regalloc", "b0", &regalloc.PressureError{Block: "b0", Instr: 7, Detail: "x"})
		var ce *Error
		if !errors.As(err, &ce) || ce.Instr != 7 {
			t.Fatalf("instruction index not lifted from PressureError: %+v", err)
		}
	})
	t.Run("panic-recovered", func(t *testing.T) {
		// A block with a nil instruction panics inside the stages; the
		// boundary must turn that into a degradation or an *Error, never
		// an escaping panic.
		bad := &ir.Block{Label: "bad", Freq: 1, Instrs: []*ir.Instr{nil}}
		res, err := RunBlock(ctx, bad, Options{SkipRegalloc: true})
		if err != nil {
			asCompileError(t, err, "compile")
		} else if !res.Degraded() {
			t.Fatal("nil-instruction block neither errored nor degraded")
		}
	})
}

// TestChaosFaultProfiles is the chaos test: both schedulers' output must
// survive simulation under every injected memory fault — spikes, lock-in
// congestion, heavy tails and contract-violating hostile samples — with
// concurrent trials per profile (run under -race).
func TestChaosFaultProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	blk := workload.Random(rng, workload.DefaultRandomParams(40))
	procs := []machine.Config{
		{},
		{Kind: machine.MaxOutstanding, Limit: 2},
		{Kind: machine.MaxAge, Limit: 4},
	}
	for _, s := range []string{sched.PolicyBalanced, sched.PolicyTraditional} {
		res, err := RunBlock(context.Background(), blk, Options{Policy: s})
		if err != nil {
			t.Fatalf("%v: compile: %v", s, err)
		}
		if err := sim.Verify(res.Block.Instrs); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for pi, m := range memlat.FaultProfiles() {
			s, m, pi := s, m, pi
			t.Run(fmt.Sprintf("%v/%s", s, m.Name()), func(t *testing.T) {
				t.Parallel()
				model := memlat.ForStream(m)
				rng := rand.New(rand.NewSource(int64(1000 + pi)))
				for _, proc := range procs {
					for _, cycles := range sim.Trials(res.Block.Instrs, proc, model, rng, sim.Options{}, 3) {
						if cycles < float64(len(blk.Instrs))/float64(proc.IssueWidth()) {
							t.Fatalf("proc %+v: impossible cycle count %g", proc, cycles)
						}
					}
				}
			})
		}
	}
}

// TestProgramRunAggregates checks Run over a multi-block program,
// including degradation aggregation.
func TestProgramRunAggregates(t *testing.T) {
	src := `func f
block b0 freq=2
v0 = const 1
v1 = load a[v0+0]
liveout v1
end
block b1 freq=1
v0 = load b[8]
v1 = add v0, v0
liveout v1
end`
	prog, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), prog, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Blocks) != 2 {
		t.Fatalf("got %d block results", len(res.Blocks))
	}
	if got := len(res.Program.Blocks()); got != 2 {
		t.Fatalf("program has %d blocks", got)
	}

	// Starve it and the per-block degradations must aggregate.
	res, err = Run(context.Background(), prog, Options{BlockBudget: 1})
	if err != nil {
		t.Fatalf("Run (starved): %v", err)
	}
	if len(res.Degradations) == 0 {
		t.Fatal("starved program recorded no degradations")
	}
	for _, e := range res.Degradations {
		if e.Deadline {
			t.Fatalf("budget-forced degradation %v wrongly flagged Deadline", e)
		}
	}
	for _, br := range res.Blocks {
		if len(br.Degradations) == 0 {
			t.Fatalf("block %s recorded no degradations", br.Block.Label)
		}
	}
}

// TestStageObserver: a non-nil Options.SpanObserver receives one record
// per stage per pass — deps/weights/schedule twice (two passes),
// regalloc once — and records keep flowing on the degradation path.
func TestStageObserver(t *testing.T) {
	blk := chainBlock(t, 4, 4)
	var mu sync.Mutex
	counts := map[string]int{}
	obs := func(s StageSpan) {
		if s.Duration < 0 {
			t.Errorf("stage %s reported negative duration %v", s.Stage, s.Duration)
		}
		mu.Lock()
		counts[s.Stage]++
		mu.Unlock()
	}
	if _, err := RunBlock(context.Background(), blk, Options{SpanObserver: obs}); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{StageDeps: 2, StageWeights: 2, StageSchedule: 2, StageRegalloc: 1}
	for stage, n := range want {
		if counts[stage] != n {
			t.Errorf("stage %s observed %d times, want %d (all: %v)", stage, counts[stage], n, counts)
		}
	}

	// A budget small enough to force the ladder still reports timings.
	counts = map[string]int{}
	res, err := RunBlock(context.Background(), blk, Options{SpanObserver: obs, BlockBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded() {
		t.Fatal("budget 1 did not degrade")
	}
	// Budget 1 fails the DAG build itself, so the pass falls straight to
	// source order — but the burned deps time is still reported.
	mu.Lock()
	defer mu.Unlock()
	if counts[StageDeps] == 0 {
		t.Errorf("degraded compile reported no stage timings: %v", counts)
	}
}

// TestStageObserverConcurrent: Run with parallel blocks calls the span
// observer from several goroutines; under `make test-race` this pins
// the documented concurrency contract.
func TestStageObserverConcurrent(t *testing.T) {
	prog := &ir.Program{Name: "p"}
	f := &ir.Func{Name: "f"}
	for i := 0; i < 8; i++ {
		b := chainBlock(t, 2, 3)
		b.Label = fmt.Sprintf("b%d", i)
		f.Blocks = append(f.Blocks, b)
	}
	prog.Funcs = []*ir.Func{f}
	var samples atomic.Int64
	_, err := Run(context.Background(), prog, Options{
		Parallelism:  4,
		SpanObserver: func(StageSpan) { samples.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8 blocks × (2 passes × 3 stages + regalloc) = 56 samples.
	if got := samples.Load(); got != 56 {
		t.Errorf("observed %d samples, want 56", got)
	}
}

// TestStageSpanObserver: Options.SpanObserver receives block- and
// pass-attributed records for every stage.
func TestStageSpanObserver(t *testing.T) {
	blk := chainBlock(t, 4, 4)
	blk.Label = "bspan"
	var mu sync.Mutex
	var spans []StageSpan
	res, err := RunBlock(context.Background(), blk, Options{
		SpanObserver: func(s StageSpan) {
			mu.Lock()
			spans = append(spans, s)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil result")
	}
	// 2 passes × 3 stages + regalloc = 7 records.
	if len(spans) != 7 {
		t.Fatalf("span records %d, want 7", len(spans))
	}
	passes := map[string]map[int]int{}
	for _, s := range spans {
		if s.Block != "bspan" {
			t.Errorf("span record block %q, want bspan", s.Block)
		}
		if s.Start.IsZero() || s.Duration < 0 {
			t.Errorf("span record %+v has bad bounds", s)
		}
		if passes[s.Stage] == nil {
			passes[s.Stage] = map[int]int{}
		}
		passes[s.Stage][s.Pass]++
	}
	for _, stage := range []string{StageDeps, StageWeights, StageSchedule} {
		if passes[stage][1] != 1 || passes[stage][2] != 1 {
			t.Errorf("stage %s pass counts %v, want one record per pass", stage, passes[stage])
		}
	}
	if passes[StageRegalloc][0] != 1 {
		t.Errorf("regalloc pass counts %v, want one record at pass 0", passes[StageRegalloc])
	}
}
