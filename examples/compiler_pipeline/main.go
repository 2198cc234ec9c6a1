// Compiler pipeline: a full compile-and-measure pass over a benchmark.
//
// Shows the complete flow the experiments use: build a Perfect Club
// analogue (MDG — molecular dynamics), compile it with the traditional
// and balanced schedulers through the compile driver (two scheduling
// passes around register allocation), and simulate both on the paper's
// three processor models over a cache, a network and a mixed memory
// system.
//
// Run with: go run ./examples/compiler_pipeline
package main

import (
	"context"
	"fmt"

	"bsched/internal/compile"
	"bsched/internal/experiments"
	"bsched/internal/machine"
	"bsched/internal/memlat"
	"bsched/internal/sched"
	"bsched/internal/workload"
)

func main() {
	prog := workload.Benchmark("MDG")
	s := workload.Summarize(prog)
	fmt.Printf("benchmark %s: %d blocks, %d static instructions, %d loads\n",
		s.Name, s.Blocks, s.Instrs, s.Loads)
	fmt.Printf("  (%s)\n\n", workload.About("MDG"))

	// Compile once with each scheduler and inspect the static outcome.
	ctx := context.Background()
	trad, err := compile.Run(ctx, prog, compile.Options{Policy: sched.PolicyTraditional, TradLatency: 2})
	if err != nil {
		panic(err)
	}
	bal, err := compile.Run(ctx, prog, compile.Options{Policy: sched.PolicyBalanced})
	if err != nil {
		panic(err)
	}
	tradRes, balRes := trad.Pipeline(), bal.Pipeline()
	fmt.Printf("static schedules:  traditional(2): %.0fM instrs, %.2f%% spill\n",
		tradRes.WeightedInstrs(), tradRes.SpillPct())
	fmt.Printf("                   balanced:       %.0fM instrs, %.2f%% spill\n\n",
		balRes.WeightedInstrs(), balRes.SpillPct())

	// Measure on three memory systems across the paper's processors.
	runner := experiments.DefaultRunner()
	systems := []struct {
		mem    memlat.Model
		optLat float64
	}{
		{memlat.Cache{HitRate: 0.80, HitLat: 2, MissLat: 10}, 2},
		{memlat.NewNormal(3, 5), 3},
		{memlat.NewMixed(0.80, 2, 30, 5), 2},
	}
	fmt.Println("improvement of balanced over traditional (95% CI):")
	for _, sys := range systems {
		fmt.Printf("  %-12s", sys.mem.Name())
		for _, proc := range machine.PaperModels() {
			c := runner.Compare(prog, sys.optLat, proc, sys.mem)
			fmt.Printf("  %s: %6.1f%%", proc.Name(), c.Imp.Mean)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("Balanced scheduling needs no machine-specific retuning: the same")
	fmt.Println("schedule serves every processor/memory combination above.")
}
