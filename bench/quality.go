package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"bsched/internal/compile"
	"bsched/internal/experiments"
	"bsched/internal/machine"
	"bsched/internal/memlat"
	"bsched/internal/pipeline"
	"bsched/internal/stats"
	"bsched/internal/workload"
)

// quality is the paper's measure of the code a workload's compile path
// produced for the eight suite programs, on the UNLIMITED processor with
// the experiments package's fixed QuickRunner seeds.
type quality struct {
	// codeCycles is the geometric mean, over programs × the twelve paper
	// memory systems, of profile-weighted mean simulated cycles.
	codeCycles float64
	// spillPct is the mean over programs of Table 4's balanced spill
	// share (spill instructions as % of executed instructions).
	spillPct float64
	// balGainPct is Table 2's mean improvement of this code over the
	// traditional list scheduler at each optimistic latency.
	balGainPct float64
	// spillInstrs counts static spill instructions across the suite.
	spillInstrs int
	// simUSPerTrial is wall time per simulated block trial.
	simUSPerTrial float64
}

// suiteQuality measures the balanced code in compiled, keyed by suite
// program name. The traditional baselines compile in-process.
func suiteQuality(compiled map[string]*pipeline.ProgramResult) (quality, error) {
	var q quality
	for _, n := range suiteNames {
		res, ok := compiled[n]
		if !ok {
			return q, fmt.Errorf("no compiled code for suite program %s", n)
		}
		q.spillPct += res.SpillPct() / float64(len(suiteNames))
		for _, br := range res.Blocks {
			q.spillInstrs += br.SpillInstrs()
		}
	}
	r := experiments.QuickRunner()
	progs := workload.All()
	unl := machine.UNLIMITED()
	for _, sys := range memlat.PaperSystems() {
		for _, opt := range sys.OptLats {
			for _, n := range suiteNames {
				r.Compile(progs[n], experiments.TraditionalSched(opt))
			}
		}
	}

	start := time.Now()
	trials := 0
	measure := func(res *pipeline.ProgramResult, kind string, mem memlat.Model) experiments.Measurement {
		trials += len(res.Blocks) * r.Trials
		return r.Measure(res, kind, unl, mem)
	}
	logCycles, cells, gain, rows := 0.0, 0, 0.0, 0
	for _, sys := range memlat.PaperSystems() {
		bal := make(map[string]experiments.Measurement, len(suiteNames))
		for _, n := range suiteNames {
			m := measure(compiled[n], r.BalancedSched().Name, sys.Model)
			bal[n] = m
			logCycles += math.Log(m.MeanCycles)
			cells++
		}
		for _, opt := range sys.OptLats {
			tk := experiments.TraditionalSched(opt)
			row := 0.0
			for _, n := range suiteNames {
				trad := measure(r.Compile(progs[n], tk), tk.Name, sys.Model)
				row += stats.PairedImprovement(trad.Runtimes, bal[n].Runtimes).Mean
			}
			gain += row / float64(len(suiteNames))
			rows++
		}
	}
	q.simUSPerTrial = float64(time.Since(start).Microseconds()) / float64(trials)
	q.codeCycles = math.Exp(logCycles / float64(cells))
	q.balGainPct = gain / float64(rows)
	return q, nil
}

// nondeterministicBlocks compiles every suite block runs times with
// default options and counts the blocks whose output text is not the
// same every time.
func nondeterministicBlocks(runs int) (int, error) {
	n := 0
	for _, s := range suiteSources() {
		for _, b := range s.prog.Blocks() {
			var first string
			for k := 0; k < runs; k++ {
				res, err := compile.RunBlock(context.Background(), b, compile.Options{})
				if err != nil {
					return 0, err
				}
				if txt := res.Block.String(); k == 0 {
					first = txt
				} else if txt != first {
					n++
					break
				}
			}
		}
	}
	return n, nil
}
