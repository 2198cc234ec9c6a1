// Package sched implements the list scheduler shared by the traditional
// and balanced schedulers (§4.1 of the paper).
//
// Both schedulers are the same list scheduler; they differ only in the
// latency weights it is given: TraditionalWeights, the balanced weights
// of bsched/internal/core, or any policy of the registry (policy.go).
// The scheduler:
//
//   - defers adding an instruction to the ready list until each
//     predecessor has exhausted its expected latency (latency-deferred
//     insertion), inserting virtual no-ops on starvation — the no-ops are
//     stripped before code generation because the simulated processors use
//     hardware interlocks;
//   - selects by priority = weight + maximum priority among DAG
//     successors (the weighted critical path to a leaf), breaking ties by
//     (1) largest consumed−defined register difference (controls register
//     pressure), (2) most successors exposed for scheduling, and
//     (3) earliest generation order.
//
// The paper describes its generator as emitting the schedule in reverse
// ("bottom-up"); operationally, the deferred-ready selection below
// reproduces the paper's published schedules exactly (Figures 2a, 2b, 2c
// and 5 — pinned by tests), which a literal emit-from-the-leaves generator
// does not: filling reverse slots greedily pushes the padding instructions
// to the bottom of the block and turns the W=5 schedule of Fig. 2a into a
// lazy one. See the package tests for the derivations.
package sched

import (
	"fmt"
	"math"

	"bsched/internal/budget"
	"bsched/internal/deps"
	"bsched/internal/ir"
)

// TraditionalWeights is the traditional scheduler's weighting: one
// constant, implementation-defined latency for every load (e.g. the cache
// hit time), weight 1 for everything else (§2), honouring
// per-instruction KnownLatency overrides. Fractional latencies such as
// 2.6 (an effective access time) are allowed; one below 1 panics.
func TraditionalWeights(g *deps.Graph, loadLatency float64) []float64 {
	if loadLatency < 1 {
		panic(fmt.Sprintf("sched: load latency %g < 1", loadLatency))
	}
	w := make([]float64, g.N())
	for i := range w {
		switch in := g.Instr(i); {
		case in.KnownLatency > 0:
			w[i] = in.KnownLatency
		case in.Op.IsLoad():
			w[i] = loadLatency
		default:
			w[i] = 1
		}
	}
	return w
}

// Result is a produced schedule.
type Result struct {
	// Order is the scheduled instruction sequence (virtual no-ops already
	// stripped). The instructions are the same pointers as in the source
	// block, reordered.
	Order []*ir.Instr
	// Perm maps schedule position to original node index: Order[k] was
	// node Perm[k] of the DAG.
	Perm []int
	// VNops is the number of virtual no-op slots the scheduler inserted
	// for starvation; a diagnostic for how latency-bound the block is.
	VNops int
	// Weights are the latency weights used, indexed by original node.
	Weights []float64
	// Priorities are the computed list priorities, indexed by node.
	Priorities []float64
}

const eps = 1e-9

// Heuristics toggles the §4.1 tie-break heuristics; the ablation A9
// measures their contribution. The zero value enables everything.
type Heuristics struct {
	// NoPressureTie disables the consumed−defined register difference
	// tie-break that controls register pressure.
	NoPressureTie bool
	// NoExposeTie disables the exposed-successors tie-break.
	NoExposeTie bool
}

// maxWeight caps the latency weight a single instruction may carry.
// Hostile inputs (e.g. "!lat=1e300") must not be able to push issue slots
// anywhere near integer overflow; 1e12 slots is already ~16 minutes of
// simulated time on a GHz machine, far beyond any sane schedule.
const maxWeight = 1e12

// Schedule list-schedules the code DAG g under the given latency weights,
// one per node (a consumer of node i's value issues at least weights[i]
// slots after i), and heuristic toggles, within a work budget: the
// selection loop charges one unit per ready candidate considered per
// issue slot (the quadratic term on wide blocks). When the budget or its
// context trips, the partial schedule is discarded and the budget's
// error returned; callers fall back to source order, which is always a
// valid schedule (see bsched/internal/compile). A nil budget never
// trips, so with it the error is always nil.
//
// Non-finite weights (NaN, ±Inf) are set to 1 and weights above
// maxWeight are clamped, in place: the caller's slice becomes
// Result.Weights. So hostile weights cannot wedge the slot arithmetic.
// A slice of the wrong length panics.
func Schedule(g *deps.Graph, weights []float64, h Heuristics, wb *budget.Budget) (*Result, error) {
	n := g.N()
	if len(weights) != n {
		panic(fmt.Sprintf("sched: %d weights for %d nodes", len(weights), n))
	}
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			weights[i] = 1
		} else if w > maxWeight {
			weights[i] = maxWeight
		}
	}
	prio := priorities(g, weights)

	res := &Result{
		Order:      make([]*ir.Instr, 0, n),
		Perm:       make([]int, 0, n),
		Weights:    weights,
		Priorities: prio,
	}
	if n == 0 {
		return res, nil
	}

	flat := make([]int, 4*n)
	slotOf := flat[:n] // issue slot of each placed node, or -1
	// unplacedPreds[i] counts the edges into i from nodes not yet placed;
	// when it reaches 0 the instruction is enabled and readyAt[i] is
	// valid: the slot at which every predecessor's expected latency is
	// exhausted. It counts edges, not distinct predecessors, because the
	// exposes tie-break reads it.
	unplacedPreds := flat[n : 2*n]
	// pressure[i] is node i's consumed−defined register difference, the
	// first tie-break, fixed for the whole schedule.
	pressure := flat[2*n : 3*n]
	enabledList := flat[3*n : 3*n : 4*n] // every node enters at most once
	readyAt := make([]float64, n)
	uses := make([]ir.Reg, 0, 4)
	for i := 0; i < n; i++ {
		slotOf[i] = -1
		unplacedPreds[i] = len(g.Preds[i])
		if unplacedPreds[i] == 0 {
			enabledList = append(enabledList, i)
		}
		in := g.Instr(i)
		uses = in.AppendUses(uses[:0])
		pressure[i] = len(uses)
		if in.Def() != ir.NoReg {
			pressure[i]--
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
			if best < 0 || better(g, prio, pressure, i, best, unplacedPreds, h) {
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
				readyAt[s] = earliestSlot(g, weights, slotOf, s)
			}
		}
		// Drop placed entries once they dominate the list, keeping each
		// selection scan proportional to the live ready set rather than to
		// everything ever enabled.
		if stale*2 > len(enabledList) {
			enabledList = compact(enabledList, slotOf)
			stale = 0
		}
	}
	return res, nil
}

// earliestSlot computes the earliest slot at which node s may issue given
// its placed predecessors: a True edge from p demands a gap of weights[p]
// slots; every other dependence demands one slot.
func earliestSlot(g *deps.Graph, weights []float64, slotOf []int, s int) float64 {
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

// better reports whether candidate a should be picked over b.
func better(g *deps.Graph, prio []float64, pressure []int, a, b int, unplacedPreds []int, h Heuristics) bool {
	// 1. Highest priority (weight + max successor priority).
	if d := prio[a] - prio[b]; d > eps {
		return true
	} else if d < -eps {
		return false
	}
	// 2. Largest consumed−defined register difference: prefer killing
	// more values than are created, controlling register pressure.
	if !h.NoPressureTie {
		if d := pressure[a] - pressure[b]; d != 0 {
			return d > 0
		}
	}
	// 3. Most successors exposed for scheduling, giving the list
	// scheduler more instructions to select from.
	if !h.NoExposeTie {
		if d := exposes(g, a, unplacedPreds) - exposes(g, b, unplacedPreds); d != 0 {
			return d > 0
		}
	}
	// 4. Generated the earliest.
	return g.Instr(a).Seq < g.Instr(b).Seq
}

func exposes(g *deps.Graph, i int, unplacedPreds []int) int {
	n := 0
	for _, e := range g.Succs[i] {
		if unplacedPreds[e.To] == 1 {
			n++
		}
	}
	return n
}

func compact(list []int, slotOf []int) []int {
	out := list[:0]
	for _, i := range list {
		if slotOf[i] < 0 {
			out = append(out, i)
		}
	}
	return out
}

// priorities computes, for every node, weight + the maximum priority among
// its DAG successors (leaves: their own weight) — the weighted critical
// path from the node to a leaf.
func priorities(g *deps.Graph, weights []float64) []float64 {
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
