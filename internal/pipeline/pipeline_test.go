package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"bsched/internal/deps"
	"bsched/internal/interp"
	"bsched/internal/ir"
	"bsched/internal/regalloc"
	"bsched/internal/sched"
	"bsched/internal/workload"
)

func TestCompileBlockEndToEnd(t *testing.T) {
	blk := workload.Saxpy("sx", 3, 4)
	res, err := CompileBlock(blk, Traditional(2))
	if err != nil {
		t.Fatalf("CompileBlock: %v", err)
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
		coloring := Balanced()
		coloring.Allocator = AllocColoring
		tradColoring := Traditional(2)
		tradColoring.Allocator = AllocColoring
		for name, opts := range map[string]Options{
			"trad2":         Traditional(2),
			"trad30":        Traditional(30),
			"bal":           Balanced(),
			"bal/coloring":  coloring,
			"trad/coloring": tradColoring,
		} {
			opts.Regalloc = regalloc.Config{Regs: 12, SpillPool: 3}
			res, err := CompileBlock(blk, opts)
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
	res, err := CompileBlock(blk, Options{Weighter: sched.Traditional(2), SkipRegalloc: true})
	if err != nil {
		t.Fatalf("CompileBlock: %v", err)
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

func TestMissingWeighterRejected(t *testing.T) {
	if _, err := CompileBlock(&ir.Block{Label: "x"}, Options{}); err == nil {
		t.Fatalf("nil weighter accepted")
	}
}

func TestCompileProgramAggregates(t *testing.T) {
	prog := workload.Benchmark("ADM")
	res, err := CompileProgram(prog, Balanced())
	if err != nil {
		t.Fatalf("CompileProgram: %v", err)
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
		res, err := CompileBlock(blk, Options{
			Weighter: sched.Traditional(lat),
			Regalloc: regalloc.Config{Regs: 16, SpillPool: 3},
		})
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
		res, err := CompileBlock(blk, Options{
			Weighter: sched.Traditional(5),
			Regalloc: regalloc.Config{Regs: 10, SpillPool: 3},
		})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		// Re-run pass 2 independently: schedule the allocated block again
		// and compare semantics.
		g := deps.Build(res.Block, deps.BuildOptions{})
		re := sched.Schedule(g, sched.Traditional(5))
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
		for kind, opts := range map[string]Options{"trad": Traditional(2), "bal": Balanced()} {
			res, err := CompileProgram(prog, opts)
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
	a, err := CompileBlock(blk, Balanced())
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileBlock(blk, Balanced())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Block) != fmt.Sprint(b.Block) {
		t.Errorf("compilation not deterministic")
	}
}
