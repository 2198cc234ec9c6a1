package core

import (
	"bsched/internal/budget"
	"bsched/internal/deps"
)

// AverageWeights implements the alternate technique the paper rejects in
// §3: a single weight per basic block, computed from the average load
// level parallelism over all loads, assigned uniformly to every load.
// Because it ignores imbalances — crediting some loads with parallelism
// they do not have and ignoring parallelism above the average for others —
// the paper reports it scheduled no faster than the traditional scheduler.
// It is kept as ablation baseline A1 (experiments.AblationAverageLLP).
//
// The per-load weights it averages come from the full balanced analysis,
// so it runs under the same work budget and charges exactly what
// WeightsBudgeted charges; when the budget or its context trips, the
// budget's error is returned. A nil budget means unlimited.
func AverageWeights(g *deps.Graph, opts Options, wb *budget.Budget) ([]float64, error) {
	weights, err := WeightsBudgeted(g, opts, wb)
	if err != nil {
		return nil, err
	}
	sum, count := 0.0, 0
	for i, w := range weights {
		if opts.balanced(g.Instr(i)) {
			sum += w
			count++
		}
	}
	if count == 0 {
		return weights, nil
	}
	avg := sum / float64(count)
	for i := range weights {
		if opts.balanced(g.Instr(i)) {
			weights[i] = avg
		}
	}
	return weights, nil
}
