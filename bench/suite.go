package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"bsched/internal/compile"
	"bsched/internal/ir"
	"bsched/internal/pipeline"
	"bsched/internal/server"
	"bsched/internal/workload"
)

// suiteReplayRounds is how many times the traced replay sends each paper
// program (ten programs, so 40 requests).
const suiteReplayRounds = 4

// paperPrograms builds the paper-suite workload's inputs: the eight
// Perfect Club analogues, the Livermore selection and the integer mix.
func paperPrograms() []*source {
	progs := suiteSources()
	for _, p := range []*ir.Program{workload.Livermore(), workload.IntMix()} {
		progs = append(progs, &source{id: -1, prog: p})
	}
	return progs
}

// paper-suite's set-up is timed suiteSetups times, each time over
// suiteBuilds builds of its inputs; setup_s is the median per build. One
// build takes well under a millisecond, so a single one would be mostly
// timer and scheduler noise.
const (
	suiteSetups = 15
	suiteBuilds = 10
)

// runSuite runs the paper-suite workload: compile.Run in this process,
// with default options, over the paper's own programs, then the paper's
// quality measure of the result. There is no HTTP.
//
// Both phases compile in rounds: a round is every program once, in an
// order drawn from the seed. The programs' compile times differ by a
// factor of 30 and fall in ten tight clusters, so a figure over a whole
// number of rounds, or over each program separately, is steady where a
// count of programs per time window would depend on which programs the
// window happened to hold.
func runSuite(cfg config) (*outcome, error) {
	lightDur := time.Duration(cfg.seconds) * time.Second * 3 / 5
	satDur := time.Duration(cfg.seconds)*time.Second - lightDur
	if cfg.short {
		lightDur, satDur = time.Second/2, time.Second/2
	}

	var setups, setupsWall []float64
	var progs []*source
	for k := 0; k < pick(cfg.short, 1, suiteSetups); k++ {
		runtime.GC()
		t0, c0 := time.Now(), selfCPU()
		for b := 0; b < suiteBuilds; b++ {
			progs = paperPrograms()
		}
		setups = append(setups, (selfCPU()-c0).Seconds()/suiteBuilds)
		setupsWall = append(setupsWall, time.Since(t0).Seconds()/suiteBuilds)
	}
	ctx := context.Background()
	var ck checks
	var mu sync.Mutex // guards ck and attempted in the saturation phase
	attempted := 0
	// round compiles every program once in the order rng draws, and
	// returns each program's compile time by index.
	round := func(rng *rand.Rand, opts compile.Options) []time.Duration {
		took := make([]time.Duration, len(progs))
		for _, i := range rng.Perm(len(progs)) {
			t0 := time.Now()
			_, err := compile.Run(ctx, progs[i].prog, opts)
			took[i] = time.Since(t0)
			mu.Lock()
			attempted++
			if err != nil {
				ck.add(fmt.Errorf("compile %s: %w", progs[i].prog.Name, err))
			}
			mu.Unlock()
		}
		return took
	}
	// Light phase: one caller, default options. perProg holds each
	// program's compile latencies; lat pools them round by round.
	// This process's CPU time and peak RSS are read around every round:
	// the peak of one round is steady where the peak of the whole run
	// depends on where the collector happened to run.
	rng := rngFor(cfg.seed, "paper-suite")
	perProg := make([][]float64, len(progs))
	var lat, cpuPerRound, rssPerRound []float64
	for start := time.Now(); time.Since(start) < lightDur; {
		if err := resetPeakRSS(os.Getpid()); err != nil {
			return nil, err
		}
		c0 := selfCPU()
		took := round(rng, compile.Options{})
		cpuPerRound = append(cpuPerRound, ms(selfCPU()-c0)/float64(len(progs)))
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		rssPerRound = append(rssPerRound, rss)
		for i, d := range took {
			perProg[i] = append(perProg[i], ms(d))
			lat = append(lat, ms(d))
		}
	}
	var progMedians []float64
	for _, xs := range perProg {
		progMedians = append(progMedians, median(xs))
	}

	// Saturation phase: conns callers, each running rounds back to back
	// and compiling a program's blocks one after another, so that the
	// callers and not per-block goroutines fill the cores. /proc/stat is
	// read at the phase's window boundaries, and each round's time is
	// scaled by the share of CPU time the hypervisor left the guest in
	// the window the round ended in.
	var roundSecs, unstolenSecs []float64
	var roundEndAt []time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	var tk []ticks
	tkErr := make(chan error, 1)
	go func() {
		var err error
		tk, err = sampleTicks(start, satDur)
		tkErr <- err
	}()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for time.Since(start) < satDur {
				t0 := time.Now()
				round(rng, compile.Options{Parallelism: 1})
				d := time.Since(t0).Seconds()
				mu.Lock()
				roundSecs = append(roundSecs, d)
				roundEndAt = append(roundEndAt, time.Since(start))
				mu.Unlock()
			}
		}(rngFor(cfg.seed, fmt.Sprintf("paper-suite/caller%d", w)))
	}
	wg.Wait()
	if err := <-tkErr; err != nil {
		return nil, err
	}
	for i, d := range roundSecs {
		k := windowOf(roundEndAt[i], satDur)
		unstolenSecs = append(unstolenSecs, d*unstolen(tk[k], tk[k+1]))
	}

	// Checks: every block of every program against the interpreter; the
	// eight suite programs' code feeds the quality measure.
	compiled := map[string]*pipeline.ProgramResult{}
	for _, s := range progs {
		res, err := compile.Run(ctx, s.prog, compile.Options{})
		if err != nil {
			ck.add(fmt.Errorf("compile %s: %w", s.prog.Name, err))
			continue
		}
		var blocks []*ir.Block
		for _, br := range res.Blocks {
			blocks = append(blocks, br.Block)
		}
		ck.add(checkProgram(s.prog, blocks))
		if s.suite != "" {
			compiled[s.suite] = res.Pipeline()
		}
	}
	q, err := suiteQuality(compiled)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: attempted}
	out.e2e = map[string]float64{
		"setup_s":        median(setups),
		"cpu_ms_per_req": median(cpuPerRound),
		"rss_mb":         median(rssPerRound),
		"code_cycles":    q.codeCycles,
		"spill_pct":      q.spillPct,
		"bal_gain_pct":   q.balGainPct,
	}
	out.notef("light phase: %d rounds of %d programs over %s; saturation phase: %d rounds, %.0f%% of the CPU stolen",
		len(cpuPerRound), len(progs), lightDur, len(roundSecs), 100*(1-unstolen(tk[0], tk[len(tk)-1])))
	out.addChecks(ck)

	if cfg.trace {
		// Replay against a server with caching off: like the in-process
		// loop, every request compiles.
		var sample []*request
		for k := 0; k < pick(cfg.short, 1, suiteReplayRounds); k++ {
			for _, s := range progs {
				sample = append(sample, newCompileRequest(s))
			}
		}
		rep, err := replay(cfg, "paper-suite", replayPlan{cfg: server.Config{CacheCapacity: -1}}, sample)
		if err != nil {
			return nil, err
		}
		layers := scrapeLayers(rep.before, rep.after)
		for k, v := range rep.layers {
			layers[k] = v
		}
		layers["p50_ms"] = median(progMedians)
		layers["p99_ms"] = phasePercentile(out, lat, 0.99)
		layers["sat_rps"] = float64(conns*len(progs)) / median(unstolenSecs)
		layers["setup_wall_s"] = median(setupsWall)
		// No generator runs ahead of a closed loop: nothing is ever late.
		layers["gen.late_p99_ms"] = 0
		layers["latency.samples"] = float64(len(lat))
		if err := suiteLayers(layers, q, cfg.short); err != nil {
			return nil, err
		}
		out.layers = layers
	}
	return out, nil
}
