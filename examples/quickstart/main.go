// Quickstart: the paper's Figure 1 example end to end.
//
// Builds the seven-instruction code DAG of Figure 1, computes balanced
// weights (both loads get 1 + 4/2 = 3), produces the greedy (W=5), lazy
// (W=1) and balanced schedules of Figure 2, and simulates them at fixed
// memory latencies to regenerate the interlock counts behind Figure 3.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"

	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/machine"
	"bsched/internal/memlat"
	"bsched/internal/paperdag"
	"bsched/internal/sched"
	"bsched/internal/sim"
)

func main() {
	fig := paperdag.Figure1()
	g := deps.Build(fig.Block, deps.BuildOptions{})

	fmt.Println("Figure 1 code DAG: L0 -> L1 in series, X0-X3 free, X4 uses L1")
	fmt.Println()

	// 1. Balanced weights: the algorithm measures each load's share of
	// the instruction level parallelism.
	weights := core.Weights(g, core.Options{})
	fmt.Println("balanced weights:")
	for i, in := range fig.Block.Instrs {
		fmt.Printf("  %-3s w=%g\n", fig.Name(in), weights[i])
	}
	fmt.Println()

	// 2. Three schedules from one list scheduler, differing only in the
	// weights: greedy traditional (W=5), lazy traditional (W=1), and
	// balanced (W=3) with the weights above.
	schedule := func(w []float64) *sched.Result {
		res, _ := sched.Schedule(g, w, sched.Heuristics{}, nil) // a nil budget never trips
		return res
	}
	schedules := []struct {
		name string
		res  *sched.Result
	}{
		{"traditional W=5 (greedy)", schedule(sched.TraditionalWeights(g, 5))},
		{"traditional W=1 (lazy)", schedule(sched.TraditionalWeights(g, 1))},
		{"balanced (W=3)", schedule(weights)},
	}
	for _, s := range schedules {
		fmt.Printf("%-26s %v\n", s.name+":", fig.Sequence(s.res.Order))
	}
	fmt.Println()

	// 3. Execute each schedule at fixed actual latencies 1-5 and count
	// hardware interlocks (Figure 3). Balanced wins strictly inside 2-4.
	rng := rand.New(rand.NewSource(1))
	fmt.Println("interlocks by actual load latency (Figure 3):")
	fmt.Println("  latency   greedy   lazy   balanced")
	for lat := 1; lat <= 5; lat++ {
		fmt.Printf("  %7d", lat)
		for _, s := range schedules {
			st := sim.RunBlock(s.res.Order, machine.UNLIMITED(), memlat.Fixed{Latency: lat}, rng, sim.Options{})
			fmt.Printf("   %6d", st.Interlocks)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("The balanced schedule tolerates the 2-4 cycle range that neither")
	fmt.Println("fixed-weight schedule covers — the paper's core observation.")
}
