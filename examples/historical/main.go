// Historical epilogue: why balanced scheduling faded.
//
// The paper (1993) targets in-order processors with non-blocking loads,
// where the compiler must place loads early enough to hide their latency.
// Out-of-order hardware does that placement dynamically: with register
// renaming and an instruction window, the core discovers the same load
// level parallelism at runtime, whatever the static order.
//
// This example runs the paper's Figure 1 schedules — greedy, lazy,
// balanced — first on the in-order pipeline, then on an idealized
// out-of-order core with growing windows. The Figure 3 differences
// collapse as the window opens.
//
// Run with: go run ./examples/historical
package main

import (
	"fmt"
	"math/rand"

	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/machine"
	"bsched/internal/memlat"
	"bsched/internal/ooo"
	"bsched/internal/paperdag"
	"bsched/internal/sched"
	"bsched/internal/sim"
)

func main() {
	l := paperdag.Figure1()
	g := deps.Build(l.Block, deps.BuildOptions{})
	schedule := func(w []float64) *sched.Result {
		res, _ := sched.Schedule(g, w, sched.Heuristics{}, nil) // a nil budget never trips
		return res
	}
	schedules := []struct {
		name  string
		order *sched.Result
	}{
		{"greedy (W=5)", schedule(sched.TraditionalWeights(g, 5))},
		{"lazy (W=1)", schedule(sched.TraditionalWeights(g, 1))},
		{"balanced", schedule(core.Weights(g, core.Options{}))},
	}
	mem := memlat.Fixed{Latency: 3}

	fmt.Println("Figure 1 DAG at a fixed 3-cycle load latency; cycles to execute:")
	fmt.Println()
	fmt.Printf("  %-14s %9s %8s %8s %8s\n", "schedule", "in-order", "ooo W=2", "ooo W=4", "ooo W=16")
	for _, s := range schedules {
		rng := rand.New(rand.NewSource(1))
		inorder := sim.RunBlock(s.order.Order, machine.UNLIMITED(), mem, rng, sim.Options{}).Cycles
		fmt.Printf("  %-14s %9d", s.name, inorder)
		for _, w := range []int{2, 4, 16} {
			c := ooo.Run(s.order.Order, ooo.Config{Window: w, Width: 4}, mem, rng).Cycles
			fmt.Printf(" %8d", c)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("In order, the balanced schedule is the only one that reaches the")
	fmt.Println("7-cycle dataflow bound. A 16-entry out-of-order window reaches it")
	fmt.Println("from any schedule — the hardware performs the paper's analysis at")
	fmt.Println("runtime, which is why the technique left mainstream compilers.")
}
