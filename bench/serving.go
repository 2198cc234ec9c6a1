package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bsched/internal/ir"
	"bsched/internal/pipeline"
)

// conns is the number of client connections (and load-generating
// goroutines): the machine's core count, so the generator never
// outnumbers the cores it shares with the daemon.
const conns = 2

// servingSpec describes one workload driven against a real bschedd.
type servingSpec struct {
	name string
	// rate is the open-loop arrival rate in requests/s: 40% of the
	// workload's median sat_rps measured when the benchmark was defined,
	// to two significant figures. It is never recomputed, so every later
	// commit is offered the same load.
	rate float64
	// p99LimitMS is the workload's fixed latency limit on p99_ms; the run
	// reports whether the open-loop phase met it.
	p99LimitMS float64
	daemon     daemonConfig
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// restart: set-up populates the cache directory once, untimed, and
	// setup_s times restarts on it (segment replay) until healthy.
	restart bool
	// replayN is the traced replay's sample size.
	replayN int
	// load builds the workload from its seeded stream: the programs set-up
	// sends (nil: none) and the generator of timed requests.
	load func(rng *rand.Rand, short bool) (warm *zipfTable, next func() *request)
}

var servingSpecs = []servingSpec{
	{
		name: "hit-zipf", rate: 1300, p99LimitMS: 10, setups: 3, replayN: 512,
		// Room for every block of the table: no eviction, so every hit
		// must equal its first answer byte for byte.
		daemon: daemonConfig{cacheEntries: 4096},
		load: func(rng *rand.Rand, short bool) (*zipfTable, func() *request) {
			t := hitCorpus(rng, pick(short, 64, 256))
			return t, zipfGen(t)
		},
	},
	{
		name: "miss-fresh", rate: 200, p99LimitMS: 100, setups: 9, replayN: 256,
		load: func(rng *rand.Rand, short bool) (*zipfTable, func() *request) {
			return nil, missGen(rng)
		},
	},
	{
		name: "churn-disk", rate: 960, p99LimitMS: 25, setups: 5, restart: true, replayN: 512,
		daemon: daemonConfig{cacheEntries: 512},
		load: func(rng *rand.Rand, short bool) (*zipfTable, func() *request) {
			t := churnCorpus(rng, pick(short, 512, 4096), pick(short, 256, 2048))
			return t, churnGen(t, rng)
		},
	},
}

func pick(short bool, small, full int) int {
	if short {
		return small
	}
	return full
}

// arrivals returns the due times of a Poisson arrival process at rate
// per second over dur.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return due
		}
		due = append(due, t)
	}
}

// sample is one open-loop request's timing and outcome, as offsets from
// the start of the phase.
type sample struct {
	due, sent, done time.Duration
	status          int
	err             error
	body            []byte // kept for the output checks only
	skipped         bool   // not sent: the phase had run out of time
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// openLoop sends reqs[i] at due[i] (Poisson arrivals) over conns
// connections. A request is sent by whichever connection frees first, so
// a stall makes later requests late, and latency is timed from the due
// time: the wait a stall imposes is counted, not hidden. A request still
// unsent at stop is skipped: on a host whose hypervisor steals most of
// the CPU the backlog would otherwise hold the run far past its length.
// The paper programs are never skipped; the quality metrics need them.
func openLoop(c *http.Client, base string, start time.Time, reqs []*request, due []time.Duration, keep []bool, stop time.Duration) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if d := time.Until(start.Add(due[i])); d > 0 {
					time.Sleep(d)
				}
				s := &out[i]
				if time.Since(start) > stop && reqs[i].progs[0].suite == "" {
					s.skipped = true
					continue
				}
				s.due, s.sent = due[i], time.Since(start)
				s.status, s.body, s.err = post(c, base, reqs[i], keep[i])
				s.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedResult is the outcome of a closed-loop phase.
type closedResult struct {
	attempted int
	okAt      []time.Duration // completion offsets of the 200 answers
	failed    []error
	batches   []*request // batch requests answered, with their streams
	bodies    [][]byte
	cycled    bool // the pool ran out and its requests were sent again
}

// closedLoop keeps conns requests outstanding for dur from start: each
// connection sends its next request as soon as the previous answer
// arrives. A daemon fast enough to get through the whole pool is sent
// the pool again, so the loop always fills dur; the repeats are cache
// hits where the pool held fresh programs.
func closedLoop(c *http.Client, base string, pool []*request, start time.Time, dur time.Duration) closedResult {
	var res closedResult
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				r := pool[int(next.Add(1)-1)%len(pool)]
				status, body, err := post(c, base, r, r.batch)
				at := time.Since(start)
				mu.Lock()
				res.attempted++
				switch {
				case err != nil:
					res.failed = append(res.failed, err)
				case status != http.StatusOK:
					res.failed = append(res.failed, fmt.Errorf("%s: %d %s", r.path(), status, body))
				default:
					res.okAt = append(res.okAt, at)
					if r.batch {
						res.batches = append(res.batches, r)
						res.bodies = append(res.bodies, body)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.cycled = int(next.Load()) > len(pool)
	return res
}

// warmResult is what set-up learned from sending the warm programs: the
// normalized first answer per program id, and the suite programs' code.
type warmResult struct {
	first map[int][32]byte
	suite map[string]*pipeline.ProgramResult
}

// warm sends every program of t once over conns connections.
func warm(c *http.Client, base string, t *zipfTable) (warmResult, error) {
	res := warmResult{first: map[int][32]byte{}, suite: map[string]*pipeline.ProgramResult{}}
	var mu sync.Mutex
	var firstErr error
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(t.progs) {
					return
				}
				s := t.progs[i]
				status, body, err := post(c, base, newCompileRequest(s), true)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm %s: %d %s", s.prog.Name, status, body)
				}
				var h [32]byte
				var blocks []*ir.Block
				if err == nil {
					h, _, err = bodyHash(body)
				}
				if err == nil && s.suite != "" {
					blocks, err = compiledBlocks(body)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				res.first[s.id] = h
				if blocks != nil {
					res.suite[s.suite] = programResult(s.prog, blocks)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res, firstErr
}

// runServing runs one serving workload end to end: set-up, the open-loop
// phase, the closed-loop phase, the /metrics scrapes around them, and the
// output checks; with cfg.trace, the traced replay follows.
func runServing(cfg config, spec servingSpec) (*outcome, error) {
	short := cfg.short
	openDur := time.Duration(cfg.seconds) * time.Second * 3 / 5
	closedDur := time.Duration(cfg.seconds)*time.Second - openDur
	if short {
		openDur, closedDur = time.Second/2, time.Second/2
	}
	rng := rngFor(cfg.seed, spec.name)
	table, next := spec.load(rng, short)

	// Generate every timed request before anything is timed.
	due := arrivals(rngFor(cfg.seed, spec.name+"/arrivals"), spec.rate, openDur)
	open := make([]*request, len(due))
	for i := range open {
		open[i] = next()
	}
	// checked marks the seeded 1-in-16 sample (at most 200) whose answers
	// are interp-checked; keep also holds every batch stream's body.
	checked := make([]bool, len(open))
	sampler := rngFor(cfg.seed, spec.name+"/sample")
	for i, n := 0, 0; i < len(open) && n < 200; i++ {
		if sampler.Intn(16) == 0 {
			checked[i] = true
			n++
		}
	}
	if table == nil {
		// No warm table carries the paper programs: they ride the open
		// loop instead, at fixed, evenly spaced positions.
		for k, s := range suiteSources() {
			i := (k + 1) * len(open) / (len(suiteNames) + 1)
			open[i], checked[i] = newCompileRequest(s), true
		}
	}
	keep := make([]bool, len(open))
	for i, r := range open {
		keep[i] = checked[i] || r.batch
	}
	// Twice the requests the closed loop uses at the saturation rate the
	// open-loop rate was derived from; closedLoop cycles it past that.
	pool := make([]*request, int(spec.rate/0.4*closedDur.Seconds()*2)+64)
	for i := range pool {
		pool[i] = next()
	}

	dcfg := spec.daemon
	var populated string // the cache directory as set-up left it, for the replay
	if spec.restart {
		dir, err := os.MkdirTemp(cfg.work, spec.name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		dcfg.cacheDir = filepath.Join(dir, "cache")
		populated = filepath.Join(dir, "populated")
	}
	c := newClient(conns)
	defer c.CloseIdleConnections()

	// Set-up, several times; setup_s is the median of the daemon's CPU
	// time from exec until ready, setup_wall_s of the wall time.
	var w warmResult
	var setups, setupsWall []float64
	var t target
	if spec.restart {
		d, err := start(cfg.bschedd, dcfg)
		if err != nil {
			return nil, err
		}
		w, err = warm(c, d.base(), table)
		c.CloseIdleConnections()
		if serr := d.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
		if cfg.trace {
			if err := copyDir(dcfg.cacheDir, populated); err != nil {
				return nil, err
			}
		}
	}
	for k := 0; k < pick(short, 1, spec.setups); k++ {
		if t != nil {
			c.CloseIdleConnections()
			if err := t.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		d, err := start(cfg.bschedd, dcfg)
		if err != nil {
			return nil, err
		}
		t = d
		if table != nil && !spec.restart {
			if w, err = warm(c, t.base(), table); err != nil {
				t.stop()
				return nil, fmt.Errorf("warm: %w", err)
			}
		}
		setupsWall = append(setupsWall, time.Since(t0).Seconds())
		cpu, err := t.cpu()
		if err != nil {
			t.stop()
			return nil, err
		}
		setups = append(setups, cpu.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			t.stop()
		}
	}()

	before, err := getMetrics(t.base())
	if err != nil {
		return nil, err
	}
	// The generator's own garbage collection would make it late; it
	// allocates little per request, so collect rarely while timing.
	gc := debug.SetGCPercent(400)
	start := time.Now()
	var cpu []time.Duration
	var peaks []float64
	sampleErr := make(chan error, 1)
	go func() {
		var err error
		cpu, peaks, err = sampleWindows(t, start, openDur)
		sampleErr <- err
	}()
	samples := openLoop(c, t.base(), start, open, due, keep, openDur*3/2)
	if err := <-sampleErr; err != nil {
		return nil, err
	}
	closedStart := time.Now()
	var tk []ticks
	go func() {
		var err error
		tk, err = sampleTicks(closedStart, closedDur)
		sampleErr <- err
	}()
	closed := closedLoop(c, t.base(), pool, closedStart, closedDur)
	if err := <-sampleErr; err != nil {
		return nil, err
	}
	debug.SetGCPercent(gc)
	after, err := getMetrics(t.base())
	if err != nil {
		return nil, err
	}
	c.CloseIdleConnections()
	stopped = true
	if err := t.stop(); err != nil {
		return nil, err
	}

	out := &outcome{attempted: closed.attempted}
	var ck checks
	var lat, late []float64
	var doneAt []time.Duration
	suite := w.suite
	if table == nil {
		suite = map[string]*pipeline.ProgramResult{}
	}
	skipped := 0
	for i := range samples {
		s := &samples[i]
		if s.skipped {
			skipped++
			continue
		}
		out.attempted++
		if !s.ok() {
			ck.add(fmt.Errorf("%s: status %d: %v %s", open[i].path(), s.status, s.err, s.body))
			continue
		}
		lat = append(lat, ms(s.done-s.due))
		late = append(late, ms(s.sent-s.due))
		doneAt = append(doneAt, s.done)
		r := open[i]
		if !checked[i] {
			if r.batch {
				_, err := streamBlocks(r, s.body)
				ck.add(err)
			}
			continue
		}
		if err := checkResponse(r, s.body); err != nil {
			ck.add(err)
			continue
		}
		if r.batch {
			continue
		}
		if src := r.progs[0]; src.suite != "" {
			blocks, _ := compiledBlocks(s.body) // checkResponse parsed it already
			suite[src.suite] = programResult(src.prog, blocks)
		}
		if id := r.progs[0].id; id >= 0 {
			h, cached, err := bodyHash(s.body)
			if err == nil && cached && h != w.first[id] {
				err = fmt.Errorf("program %s: cache hit differs from its first answer", r.progs[0].prog.Name)
			}
			ck.add(err)
		}
	}
	for _, err := range closed.failed {
		ck.add(err)
	}
	for i, r := range closed.batches {
		_, err := streamBlocks(r, closed.bodies[i])
		ck.add(err)
	}

	q, err := suiteQuality(suite)
	if err != nil {
		return nil, err
	}
	out.e2e = map[string]float64{
		"setup_s":        median(setups),
		"cpu_ms_per_req": cpuPerCompletion(cpu, doneAt, openDur),
		"rss_mb":         median(peaks),
		"code_cycles":    q.codeCycles,
		"spill_pct":      q.spillPct,
		"bal_gain_pct":   q.balGainPct,
	}
	p99 := phasePercentile(out, lat, 0.99)
	out.notef("open loop: %d requests at %.0f/s over %s, %d kept for checks, %d skipped; closed loop: %d requests over %s, %.0f%% of the CPU stolen",
		len(samples)-skipped, spec.rate, openDur, countTrue(checked), skipped, closed.attempted, closedDur,
		100*(1-unstolen(tk[0], tk[len(tk)-1])))
	if closed.cycled {
		out.notef("closed loop got through all %d pre-generated requests and sent them again: sat_rps counts the repeats, which hit the cache", len(pool))
	}
	if p99 > spec.p99LimitMS {
		out.notef("p99_ms %.3f is above the workload's limit of %g ms", p99, spec.p99LimitMS)
	}
	out.addChecks(ck)

	if cfg.trace {
		layers := scrapeLayers(before, after)
		layers["p50_ms"] = phasePercentile(out, lat, 0.50)
		layers["p99_ms"] = p99
		layers["sat_rps"] = unstolenRate(closed.okAt, closedDur, tk)
		layers["setup_wall_s"] = median(setupsWall)
		layers["gen.late_p99_ms"], _ = tailPercentile(late, 0.99)
		layers["latency.samples"] = float64(len(lat))
		if err := suiteLayers(layers, q, short); err != nil {
			return nil, err
		}
		plan := replayPlan{cfg: dcfg.serverConfig(), warm: table}
		if spec.restart {
			plan.warm, plan.diskFrom = nil, populated
		}
		rep, err := replay(cfg, spec.name, plan, open[:min(pick(short, 16, spec.replayN), len(open))])
		if err != nil {
			return nil, err
		}
		for k, v := range rep.layers {
			layers[k] = v
		}
		out.layers = layers
	}
	return out, nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// scrapeLayers turns the daemon's /metrics counters, differenced over
// the timed phases, into per-layer metrics: mean time per stage
// observation, block dispositions as shares of blocks dispatched, disk
// writes, shed requests and degradation events.
func scrapeLayers(before, after scrape) map[string]float64 {
	delta := func(name string, labels ...string) float64 {
		return after.sum(name, labels...) - before.sum(name, labels...)
	}
	out := map[string]float64{}
	for _, st := range []string{"parse", "lookup", "disk", "queue", "compile", "deps", "weights", "schedule", "regalloc"} {
		v := 0.0
		if n := delta("bschedd_stage_duration_seconds_count", "stage", st); n > 0 {
			v = delta("bschedd_stage_duration_seconds_sum", "stage", st) / n * 1000
		}
		out["stage."+st+"_ms"] = v
	}
	blocks := delta("bschedd_block_cache_events_total")
	for _, o := range []string{"hit", "disk", "coalesced", "miss"} {
		v := 0.0
		if blocks > 0 {
			v = delta("bschedd_block_cache_events_total", "outcome", o) / blocks
		}
		out["engine."+o+"_ratio"] = v
	}
	out["engine.disk_writes"] = delta("bschedd_diskcache_events_total", "event", "write")
	out["engine.shed"] = delta("bschedd_admission_total", "outcome", "shed_sojourn") +
		delta("bschedd_admission_total", "outcome", "shed_full")
	out["compile.degradations"] = delta("bschedd_degradations_total")
	return out
}

// suiteLayers adds the per-layer numbers of the suite probes: the
// determinism probe, static spill count and simulator cost.
func suiteLayers(layers map[string]float64, q quality, short bool) error {
	nd, err := nondeterministicBlocks(pick(short, 2, 8))
	if err != nil {
		return err
	}
	layers["regalloc.nondet_blocks"] = float64(nd)
	layers["regalloc.spill_instrs"] = float64(q.spillInstrs)
	layers["sim.us_per_trial"] = q.simUSPerTrial
	return nil
}
