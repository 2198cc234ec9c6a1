// Command bench is the repository's end-to-end benchmark. Three
// workloads drive a real bschedd over loopback (hit-zipf, miss-fresh,
// churn-disk); a fourth compiles and simulates the paper's suite in this
// process (paper-suite). bench/README.md explains the workloads, the
// metrics and how each layer metric should move each end-to-end one.
//
// Run it from the repository root through bench/run.sh, which builds the
// daemon and this program first:
//
//	bash bench/run.sh --workload hit-zipf --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object of the
// end-to-end metrics; with --trace 1 the run is followed by a traced
// replay and the object holds the per-layer metrics instead. The exit
// status is non-zero when any request or output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	repeat   int
	// bschedd is the daemon binary; the package tests leave it empty to
	// serve in-process.
	bschedd string
	work    string // scratch directory for cache directories
	out     string // directory the traces are written to
	// short shrinks corpora, set-up repetitions and the replay, and runs
	// half-second phases: a smoke run for the package tests.
	short bool
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct{ name, unit string }

// endToEnd are the metrics a trace-0 run reports, on every workload. The
// times among them are CPU times, which the hypervisor's steal does not
// inflate; README.md gives the spreads that kept latency and throughput
// out of this list.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"cpu_ms_per_req", "ms"},
	{"rss_mb", "MB"},
	{"code_cycles", "cycles"},
	{"spill_pct", "%"},
	{"bal_gain_pct", "%"},
}

// perLayer are the metrics a trace-1 run reports, on every workload.
var perLayer = []metricDecl{
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"sat_rps", "req/s"},
	{"setup_wall_s", "s"},
	{"server.decode_us", "us"},
	{"server.decode_allocs", "count"},
	{"ir.parse_us", "us"},
	{"ir.parse_allocs", "count"},
	{"ir.fingerprint_us", "us"},
	{"deps.build_us", "us"},
	{"core.weights_us", "us"},
	{"core.weights_allocs", "count"},
	{"sched.schedule_us", "us"},
	{"regalloc.run_us", "us"},
	{"compile.block_us", "us"},
	{"compile.overhead_us", "us"},
	{"server.encode_us", "us"},
	{"server.handler_us", "us"},
	{"server.handler_allocs", "count"},
	{"server.unattributed_us", "us"},
	{"net.loopback_us", "us"},
	{"trace.overhead_pct", "%"},
	{"stage.parse_ms", "ms"},
	{"stage.lookup_ms", "ms"},
	{"stage.disk_ms", "ms"},
	{"stage.queue_ms", "ms"},
	{"stage.compile_ms", "ms"},
	{"stage.deps_ms", "ms"},
	{"stage.weights_ms", "ms"},
	{"stage.schedule_ms", "ms"},
	{"stage.regalloc_ms", "ms"},
	{"engine.hit_ratio", "ratio"},
	{"engine.disk_ratio", "ratio"},
	{"engine.coalesced_ratio", "ratio"},
	{"engine.miss_ratio", "ratio"},
	{"engine.disk_writes", "count"},
	{"engine.shed", "count"},
	{"compile.degradations", "count"},
	{"gen.late_p99_ms", "ms"},
	{"latency.samples", "count"},
	{"regalloc.nondet_blocks", "count"},
	{"regalloc.spill_instrs", "count"},
	{"sim.us_per_trial", "us"},
}

// workloads lists every workload name in run order.
func workloads() []string {
	var names []string
	for _, s := range servingSpecs {
		names = append(names, s.name)
	}
	return append(names, "paper-suite")
}

// outcome is one run of one workload.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64 // trace runs only
	notes             []string
	checkErrs         []string
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) addChecks(c checks) {
	o.failed += c.failed
	o.checkErrs = append(o.checkErrs, c.first...)
}

func runWorkload(cfg config, name string) (*outcome, error) {
	if name == "paper-suite" {
		return runSuite(cfg)
	}
	for _, s := range servingSpecs {
		if s.name == name {
			return runServing(cfg, s)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloads(), "|"))
}

// reported picks the metric set a run prints and checks it against the
// declaration, so a run can never print a set BENCHMARK.json does not
// declare.
func reported(cfg config, o *outcome) (map[string]float64, []metricDecl, error) {
	vals, decls := o.e2e, endToEnd
	if cfg.trace {
		vals, decls = o.layers, perLayer
	}
	if len(vals) != len(decls) {
		return nil, nil, fmt.Errorf("run produced %d metrics, %d declared", len(vals), len(decls))
	}
	for _, d := range decls {
		if _, ok := vals[d.name]; !ok {
			return nil, nil, fmt.Errorf("run did not produce metric %s", d.name)
		}
	}
	return vals, decls, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloads(), ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input is derived from")
	flag.IntVar(&cfg.seconds, "seconds", 15, "measured time per run: three fifths light load, two fifths saturation")
	trace := flag.Int("trace", 0, "1: follow the run with the traced replay and report per-layer metrics")
	flag.IntVar(&cfg.repeat, "repeat", 1, "run each workload N times on seeds seed..seed+N-1 and print each metric's median and spread")
	flag.StringVar(&cfg.bschedd, "bschedd", ".bench_build/bschedd", "bschedd binary to drive")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory")
	flag.StringVar(&cfg.out, "out", ".bench_build/traces", "directory for <workload>.trace.json")
	flag.Parse()
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 || cfg.seconds < 1 || cfg.repeat < 1 || cfg.bschedd == "" {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1; -seconds and -repeat must be positive; -bschedd must name a binary")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloads()
	}
	ok := true
	for _, name := range names {
		if !runAndReport(cfg, name) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runAndReport runs one workload (cfg.repeat times), prints every metric
// by name and unit, and ends with the JSON result line. It reports
// whether every run succeeded and every check passed.
func runAndReport(cfg config, name string) bool {
	res := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	series := map[string][]float64{}
	var decls []metricDecl
	for r := 0; r < cfg.repeat; r++ {
		run := cfg
		run.seed = cfg.seed + int64(r)
		o, err := runWorkload(run, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, run.seed, err)
			return false
		}
		for _, n := range o.notes {
			fmt.Printf("%s: %s\n", name, n)
		}
		for _, e := range o.checkErrs {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: check failed: %s\n", name, run.seed, e)
		}
		var vals map[string]float64
		vals, decls, err = reported(cfg, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return false
		}
		for k, v := range vals {
			series[k] = append(series[k], v)
		}
		res.Attempted += o.attempted
		res.Failed += o.failed
	}
	res.Correct = res.Failed == 0
	for _, d := range decls {
		vs := series[d.name]
		m := median(vs)
		res.Metrics[d.name] = jsonMetric{Value: m, Unit: d.unit}
		if len(vs) < 2 {
			fmt.Printf("%-12s %-24s %14.6g %s\n", name, d.name, m, d.unit)
			continue
		}
		q1, q3 := quartiles(vs)
		spread := 0.0
		if m != 0 {
			spread = (q3 - q1) / m
		}
		fmt.Printf("%-12s %-24s median %14.6g %-7s IQR %.4g (%.2f%% of median) over %d runs\n",
			name, d.name, m, d.unit, q3-q1, 100*spread, len(vs))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Println(string(line))
	return res.Correct
}
