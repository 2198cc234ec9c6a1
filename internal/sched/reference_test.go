package sched

// This file keeps the list scheduler the package had before it fixed
// each node's pressure tie-break once per schedule (it recomputed it,
// allocating, on every comparison) as a test-only reference, and checks
// the package's scheduler against it: the same Result, field for field,
// the same budget charges and the same errors. The reference is the old
// code verbatim, with the since removed Instr.Uses inlined as refUses.

import (
	"context"
	"math"
	"reflect"
	"testing"

	"bsched/internal/budget"
	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/workload"
)

// refUses is the old Instr.Uses: every register read, the address base
// of a memory operation last, in a fresh slice.
func refUses(in *ir.Instr) []ir.Reg {
	out := make([]ir.Reg, 0, len(in.Srcs)+1)
	for _, s := range in.Srcs {
		if s != ir.NoReg {
			out = append(out, s)
		}
	}
	if in.Op.IsMem() && in.Base != ir.NoReg {
		out = append(out, in.Base)
	}
	return out
}

// refScheduleBudgeted is ScheduleWith under a work budget: the selection
// loop charges one unit per ready candidate considered per issue slot
// (the quadratic term on wide blocks). When the budget or its context
// trips, the partial schedule is discarded and the budget's error
// returned; callers fall back to source order, which is always a valid
// schedule (see bsched/internal/compile). A nil budget means unlimited.
//
// Non-finite weights (NaN, ±Inf) are sanitized to 1 and weights above
// maxWeight are clamped, so a hostile Weighter cannot wedge the slot
// arithmetic.
func refScheduleBudgeted(g *deps.Graph, weigh Weighter, h Heuristics, wb *budget.Budget) (*Result, error) {
	n := g.N()
	weights := weigh(g)
	if len(weights) != n {
		panic("sched: weighter returned wrong length")
	}
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			weights[i] = 1
		} else if w > maxWeight {
			weights[i] = maxWeight
		}
	}
	prio := refPriorities(g, weights)

	res := &Result{
		Order:      make([]*ir.Instr, 0, n),
		Perm:       make([]int, 0, n),
		Weights:    weights,
		Priorities: prio,
	}
	if n == 0 {
		return res, nil
	}

	slotOf := make([]int, n) // issue slot of each placed node, or -1
	for i := range slotOf {
		slotOf[i] = -1
	}
	// unplacedPreds[i] counts predecessors not yet placed; when it reaches
	// 0 the instruction is enabled and readyAt[i] is valid: the slot at
	// which every predecessor's expected latency is exhausted.
	unplacedPreds := make([]int, n)
	readyAt := make([]float64, n)
	var enabledList []int
	for i := 0; i < n; i++ {
		unplacedPreds[i] = len(g.Preds[i])
		if unplacedPreds[i] == 0 {
			enabledList = append(enabledList, i)
		}
	}

	placed := 0
	stale := 0 // placed nodes still sitting in enabledList
	slot := 0  // current issue slot (counts virtual no-ops too)
	for placed < n {
		if err := wb.Charge(1 + int64(len(enabledList))); err != nil {
			return nil, err
		}
		best := -1
		minReady := math.Inf(1)
		for _, i := range enabledList {
			if slotOf[i] >= 0 {
				continue
			}
			if readyAt[i] > float64(slot)+eps {
				if readyAt[i] < minReady {
					minReady = readyAt[i]
				}
				continue
			}
			if best < 0 || refBetter(g, prio, i, best, unplacedPreds, h) {
				best = i
			}
		}
		if best < 0 {
			// Starvation: every enabled instruction is still inside some
			// predecessor's latency window. Insert virtual no-op slots up
			// to the earliest ready time — jumping in one step rather than
			// slot by slot, so huge latency weights cannot wedge the loop.
			next := int(math.Ceil(minReady - eps))
			if next <= slot {
				next = slot + 1
			}
			res.VNops += next - slot
			slot = next
			continue
		}
		slotOf[best] = slot
		res.Order = append(res.Order, g.Instr(best))
		res.Perm = append(res.Perm, best)
		placed++
		stale++
		slot++
		// Placing best enables successors and fixes their ready times.
		for _, e := range g.Succs[best] {
			s := e.To
			unplacedPreds[s]--
			if unplacedPreds[s] == 0 {
				enabledList = append(enabledList, s)
				readyAt[s] = refEarliestSlot(g, weights, slotOf, s)
			}
		}
		// Drop placed entries once they dominate the list, keeping each
		// selection scan proportional to the live ready set rather than to
		// everything ever enabled.
		if stale*2 > len(enabledList) {
			enabledList = refCompact(enabledList, slotOf)
			stale = 0
		}
	}
	return res, nil
}

// refEarliestSlot computes the earliest slot at which node s may issue given
// its placed predecessors: a True edge from p demands a gap of weights[p]
// slots; every other dependence demands one slot.
func refEarliestSlot(g *deps.Graph, weights []float64, slotOf []int, s int) float64 {
	ready := 0.0
	for _, e := range g.Preds[s] {
		p := e.To
		if slotOf[p] < 0 {
			panic("sched: predecessor not placed")
		}
		gap := 1.0
		if e.Kind == deps.True {
			gap = weights[p]
		}
		if want := float64(slotOf[p]) + gap; want > ready {
			ready = want
		}
	}
	return ready
}

// refBetter reports whether candidate a should be picked over b.
func refBetter(g *deps.Graph, prio []float64, a, b int, unplacedPreds []int, h Heuristics) bool {
	// 1. Highest priority (weight + max successor priority).
	if d := prio[a] - prio[b]; d > eps {
		return true
	} else if d < -eps {
		return false
	}
	// 2. Largest consumed−defined register difference: prefer killing
	// more values than are created, controlling register pressure.
	if !h.NoPressureTie {
		if d := refPressureDelta(g.Instr(a)) - refPressureDelta(g.Instr(b)); d != 0 {
			return d > 0
		}
	}
	// 3. Most successors exposed for scheduling, giving the list
	// scheduler more instructions to select from.
	if !h.NoExposeTie {
		if d := refExposes(g, a, unplacedPreds) - refExposes(g, b, unplacedPreds); d != 0 {
			return d > 0
		}
	}
	// 4. Generated the earliest.
	return g.Instr(a).Seq < g.Instr(b).Seq
}

func refPressureDelta(in *ir.Instr) int {
	defs := 0
	if in.Def() != ir.NoReg {
		defs = 1
	}
	return len(refUses(in)) - defs
}

func refExposes(g *deps.Graph, i int, unplacedPreds []int) int {
	n := 0
	for _, e := range g.Succs[i] {
		if unplacedPreds[e.To] == 1 {
			n++
		}
	}
	return n
}

func refCompact(list []int, slotOf []int) []int {
	out := list[:0]
	for _, i := range list {
		if slotOf[i] < 0 {
			out = append(out, i)
		}
	}
	return out
}

// refPriorities computes, for every node, weight + the maximum priority among
// its DAG successors (leaves: their own weight) — the weighted critical
// path from the node to a leaf.
func refPriorities(g *deps.Graph, weights []float64) []float64 {
	n := g.N()
	prio := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		m := 0.0
		for _, e := range g.Succs[i] {
			if prio[e.To] > m {
				m = prio[e.To]
			}
		}
		prio[i] = weights[i] + m
	}
	return prio
}

// scheduleOutcome is one scheduler's result: the schedule or the error,
// and the budget it used.
type scheduleOutcome struct {
	res  *Result
	err  string
	used int64
}

func runScheduler(schedule func(*deps.Graph, Weighter, Heuristics, *budget.Budget) (*Result, error),
	g *deps.Graph, weights []float64, h Heuristics, limit int64) scheduleOutcome {
	wb := budget.New(context.Background(), limit)
	weigh := func(*deps.Graph) []float64 { return append([]float64(nil), weights...) }
	res, err := schedule(g, weigh, h, wb)
	out := scheduleOutcome{res: res, used: wb.Used()}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestScheduleMatchesReference schedules every block of workload.Corpus,
// in both alias modes, under traditional weights with each tie-break
// heuristic switched off in turn and under balanced weights, unlimited
// and under a budget that trips halfway, and requires the reference's
// exact outcome.
func TestScheduleMatchesReference(t *testing.T) {
	type config struct {
		weights []float64
		h       Heuristics
	}
	names, blocks := workload.Corpus(600)
	for i, b := range blocks {
		for _, mode := range []deps.AliasMode{deps.AliasDisjoint, deps.AliasConservative} {
			g := deps.Build(b, deps.BuildOptions{Alias: mode})
			trad := Traditional(2)(g)
			configs := []config{{trad, Heuristics{}}, {trad, Heuristics{NoPressureTie: true}}, {trad, Heuristics{NoExposeTie: true}}}
			if mode == deps.AliasDisjoint {
				configs = append(configs, config{core.Weights(g, core.Options{}), Heuristics{}})
			}
			for ci, c := range configs {
				full := runScheduler(refScheduleBudgeted, g, c.weights, c.h, 0)
				limits := []int64{0} // unlimited
				if half := full.used / 2; half > 0 {
					limits = append(limits, half)
				}
				for _, limit := range limits {
					want := full
					if limit > 0 {
						want = runScheduler(refScheduleBudgeted, g, c.weights, c.h, limit)
					}
					got := runScheduler(ScheduleBudgeted, g, c.weights, c.h, limit)
					if got.err != want.err || got.used != want.used {
						t.Fatalf("%s (%v, config %d, limit %d): err %q used %d, reference err %q used %d",
							names[i], mode, ci, limit, got.err, got.used, want.err, want.used)
					}
					if !reflect.DeepEqual(got.res, want.res) {
						t.Fatalf("%s (%v, config %d, limit %d): result differs from the reference\n got %+v\nwant %+v",
							names[i], mode, ci, limit, got.res, want.res)
					}
				}
			}
		}
	}
}
