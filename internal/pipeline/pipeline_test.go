package pipeline_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bsched/internal/compile"
	"bsched/internal/deps"
	"bsched/internal/interp"
	"bsched/internal/ir"
	"bsched/internal/pipeline"
	"bsched/internal/regalloc"
	"bsched/internal/sched"
	"bsched/internal/workload"
)

// balanced and trad are the paper's two compilers, the traditional one
// at a given optimistic load latency.
var balanced = compile.Options{}

func trad(lat float64) compile.Options {
	return compile.Options{Policy: sched.PolicyTraditional, TradLatency: lat}
}

// compileProgram compiles through the driver and converts the result to
// this package's types.
func compileProgram(p *ir.Program, opts compile.Options) (*pipeline.ProgramResult, error) {
	res, err := compile.Run(context.Background(), p, opts)
	if err != nil {
		return nil, err
	}
	return res.Pipeline(), nil
}

// compileBlock is compileProgram for a one-block program.
func compileBlock(b *ir.Block, opts compile.Options) (*pipeline.BlockResult, error) {
	p := &ir.Program{Name: "p", Funcs: []*ir.Func{{Name: "f", Blocks: []*ir.Block{b}}}}
	res, err := compileProgram(p, opts)
	if err != nil {
		return nil, err
	}
	return res.Blocks[0], nil
}

func TestCompileBlockEndToEnd(t *testing.T) {
	blk := workload.Saxpy("sx", 3, 4)
	res, err := compileBlock(blk, trad(2))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if res.Pass1 == nil || res.Pass2 == nil {
		t.Fatalf("missing pass results")
	}
	// Output is fully physical.
	for _, in := range res.Block.Instrs {
		for _, r := range append(in.AppendUses(nil), in.Def()) {
			if r.IsVirt() {
				t.Fatalf("virtual register survived compilation: %v", in)
			}
		}
	}
	// Metadata preserved.
	if res.Block.Label != "sx" || res.Block.Freq != 3 {
		t.Errorf("metadata lost: %+v", res.Block)
	}
	// Input untouched.
	for _, in := range blk.Instrs {
		for _, r := range append(in.AppendUses(nil), in.Def()) {
			if r.IsPhys() {
				t.Fatalf("input block mutated")
			}
		}
	}
}

func TestCompilePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		blk := workload.Random(rng, workload.DefaultRandomParams(10+rng.Intn(50)))
		orig, err := interp.Run(blk.Instrs, nil)
		if err != nil {
			t.Fatalf("interp: %v", err)
		}
		coloring := balanced
		coloring.Allocator = pipeline.AllocColoring
		tradColoring := trad(2)
		tradColoring.Allocator = pipeline.AllocColoring
		for name, opts := range map[string]compile.Options{
			"trad2":         trad(2),
			"trad30":        trad(30),
			"bal":           balanced,
			"bal/coloring":  coloring,
			"trad/coloring": tradColoring,
		} {
			opts.Regalloc = regalloc.Config{Regs: 12, SpillPool: 3}
			res, err := compileBlock(blk, opts)
			if err != nil {
				t.Fatalf("trial %d/%s: %v", trial, name, err)
			}
			got, err := interp.Run(res.Block.Instrs, nil)
			if err != nil {
				t.Fatalf("trial %d/%s: interp: %v", trial, name, err)
			}
			if !interp.MemEqual(orig, got, regalloc.StackSym) {
				t.Fatalf("trial %d/%s: compilation changed semantics\nsource:\n%s\ncompiled:\n%s",
					trial, name, blk, res.Block)
			}
		}
	}
}

func TestSkipRegalloc(t *testing.T) {
	blk := workload.Dot("d", 1, 2)
	opts := trad(2)
	opts.SkipRegalloc = true
	res, err := compileBlock(blk, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if res.Pass2 != nil {
		t.Errorf("pass 2 should be skipped")
	}
	virt := false
	for _, in := range res.Block.Instrs {
		if in.Def().IsVirt() {
			virt = true
		}
	}
	if !virt {
		t.Errorf("virtual registers expected with SkipRegalloc")
	}
}

func TestCompileProgramAggregates(t *testing.T) {
	prog := workload.Benchmark("ADM")
	res, err := compileProgram(prog, balanced)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(res.Blocks) != len(prog.Blocks()) {
		t.Fatalf("block count mismatch")
	}
	wi := res.WeightedInstrs()
	if wi <= 0 {
		t.Errorf("WeightedInstrs = %g", wi)
	}
	if sp := res.SpillPct(); sp < 0 || sp > 100 {
		t.Errorf("SpillPct = %g", sp)
	}
	// Weighted instrs >= source instrs (spills can only add).
	src := 0.0
	for _, b := range prog.Blocks() {
		src += b.Freq * float64(len(b.Instrs))
	}
	if wi < src-1e-9 {
		t.Errorf("weighted instrs shrank: %g < %g", wi, src)
	}
}

// TestSpillCodeGrowsWithOptimisticLatency pins the hoisting mechanism the
// paper discusses: on a pressure-heavy block, the traditional scheduler's
// spill code grows as the optimistic latency grows (more loads hoisted
// past their uses).
func TestSpillCodeGrowsWithOptimisticLatency(t *testing.T) {
	blk := workload.MDForce("md", 1, 4)
	spills := func(lat float64) int {
		opts := trad(lat)
		opts.Regalloc = regalloc.Config{Regs: 16, SpillPool: 3}
		res, err := compileBlock(blk, opts)
		if err != nil {
			t.Fatalf("compile@%g: %v", lat, err)
		}
		return res.SpillInstrs()
	}
	low, high := spills(2), spills(30)
	if low > high {
		t.Errorf("spills at latency 2 (%d) exceed spills at 30 (%d)", low, high)
	}
	if high == 0 {
		t.Errorf("expected spill pressure at latency 30")
	}
}

// TestSecondPassRespectsAllocation: after allocation, the second pass
// must still produce a semantically identical block even under the
// false dependences of physical registers.
func TestSecondPassRespectsAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		blk := workload.Random(rng, workload.DefaultRandomParams(40))
		opts := trad(5)
		opts.Regalloc = regalloc.Config{Regs: 10, SpillPool: 3}
		res, err := compileBlock(blk, opts)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		// Re-run pass 2 independently: schedule the allocated block again
		// and compare semantics.
		g := deps.Build(res.Block, deps.BuildOptions{})
		re, err := sched.Schedule(g, sched.TraditionalWeights(g, 5), sched.Heuristics{}, nil)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		a, _ := interp.Run(res.Block.Instrs, nil)
		b, err := interp.Run(re.Order, nil)
		if err != nil {
			t.Fatalf("interp: %v", err)
		}
		if !interp.MemEqual(a, b) {
			t.Fatalf("rescheduling allocated code changed semantics")
		}
	}
}

func TestAllBenchmarksCompile(t *testing.T) {
	for _, name := range workload.BenchmarkNames() {
		prog := workload.Benchmark(name)
		for kind, opts := range map[string]compile.Options{"trad": trad(2), "bal": balanced} {
			res, err := compileProgram(prog, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			for _, br := range res.Blocks {
				if err := ir.ValidateBlock(br.Block); err != nil {
					t.Errorf("%s/%s: invalid output block: %v", name, kind, err)
				}
			}
		}
	}
}

func TestDeterministicCompilation(t *testing.T) {
	blk := workload.FFT("f", 1, 4)
	a, err := compileBlock(blk, balanced)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compileBlock(blk, balanced)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Block) != fmt.Sprint(b.Block) {
		t.Errorf("compilation not deterministic")
	}
}
