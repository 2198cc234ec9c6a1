// Package analytic computes expected interlock cycles for a schedule in
// closed form, as an independent cross-check of the simulator.
//
// Under the non-overlapping-stall approximation — each load's stall is
// charged at its first consumer, ignoring interactions between
// simultaneous stalls — the expected runtime of a single-issue schedule
// is
//
//	E[runtime] ≈ n + Σ_loads E[max(0, L − gap)]
//
// where gap is the issue-slot distance from the load to its first
// consumer and L is drawn from the memory model's pmf. The approximation
// is exact when at most one load stalls at a time (e.g. a single load, or
// serial chains), and a lower bound in general — tests verify both
// properties against the simulator.
package analytic

import (
	"fmt"

	"bsched/internal/ir"
	"bsched/internal/memlat"
)

// ExpectedExcess returns E[max(0, L − gap)] for the model's latency L.
func ExpectedExcess(dist memlat.Distribution, gap int) float64 {
	if gap < 0 {
		gap = 0
	}
	e := 0.0
	for lat, p := range dist.PMF() {
		if lat > gap {
			e += p * float64(lat-gap)
		}
	}
	return e
}

// Estimate is the analytic runtime decomposition of a schedule.
type Estimate struct {
	// Instrs is the instruction count (the stall-free runtime on a
	// single-issue machine).
	Instrs int
	// ExpectedStalls is the sum of per-load expected excess latencies.
	ExpectedStalls float64
	// PerLoad maps the schedule position of each load to its expected
	// stall contribution.
	PerLoad map[int]float64
}

// Runtime returns the estimated expected runtime in cycles.
func (e Estimate) Runtime() float64 { return float64(e.Instrs) + e.ExpectedStalls }

// EstimateRuntime analyses a scheduled instruction sequence against a
// memory model with a known pmf. Only register true dependences on load
// results are charged; all other instructions are single-cycle.
func EstimateRuntime(instrs []*ir.Instr, dist memlat.Distribution) (Estimate, error) {
	est := Estimate{PerLoad: make(map[int]float64)}
	type pending struct {
		pos  int
		dist memlat.Distribution
	}
	loads := make(map[ir.Reg]pending) // load destination -> issue info
	pos := 0
	var uses []ir.Reg
	for _, in := range instrs {
		if in.Op == ir.OpVNop {
			continue
		}
		uses = in.AppendUses(uses[:0])
		for _, u := range uses {
			pl, ok := loads[u]
			if !ok {
				continue
			}
			gap := pos - pl.pos
			if gap < 0 {
				return est, fmt.Errorf("analytic: consumer before producer")
			}
			if stall := ExpectedExcess(pl.dist, gap); stall > 0 {
				est.ExpectedStalls += stall
				est.PerLoad[pl.pos] += stall
			}
			delete(loads, u) // charge only the first consumer
		}
		if d := in.Def(); d != ir.NoReg {
			delete(loads, d)
		}
		if in.Op.IsLoad() {
			d := dist
			if in.KnownLatency > 0 {
				d = memlat.Fixed{Latency: int(in.KnownLatency)}
			}
			loads[in.Dst] = pending{pos: pos, dist: d}
		}
		est.Instrs++
		pos++
	}
	return est, nil
}
