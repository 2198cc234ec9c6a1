package sched_test

import (
	"fmt"

	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/sched"
)

// Scheduling the Figure 1 DAG with both schedulers: the traditional one
// at its optimistic weight clusters the padding behind the first load;
// balanced splits it 2-and-2.
func ExampleSchedule() {
	block := ir.MustParseBlock(`
		v0 = load a[0]
		v1 = load a[v0+0]
		v10 = addi r0, 1
		v11 = addi r0, 2
		v12 = addi r0, 3
		v13 = addi r0, 4
		v14 = addi v1, 1
	`)
	g := deps.Build(block, deps.BuildOptions{})
	for _, w := range []struct {
		name    string
		weights []float64
	}{
		{"traditional(5)", sched.TraditionalWeights(g, 5)},
		{"balanced      ", core.Weights(g, core.Options{})},
	} {
		res, _ := sched.Schedule(g, w.weights, sched.Heuristics{}, nil) // a nil budget never trips
		fmt.Printf("%s:", w.name)
		for _, in := range res.Order {
			fmt.Printf(" %v", in.Dst)
		}
		fmt.Println()
	}
	// Output:
	// traditional(5): v0 v10 v11 v12 v13 v1 v14
	// balanced      : v0 v10 v11 v1 v12 v13 v14
}
