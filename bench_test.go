// Package bsched's root benchmark harness: one testing.B benchmark per
// table and figure of the paper (run the full reproduction with
// cmd/paperrepro), plus microbenchmarks of the algorithms themselves.
//
//	go test -bench=. -benchmem
package bsched

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	"bsched/internal/analytic"
	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/experiments"
	"bsched/internal/ir"
	"bsched/internal/machine"
	"bsched/internal/memlat"
	"bsched/internal/ooo"
	"bsched/internal/pipeline"
	"bsched/internal/regalloc"
	"bsched/internal/sched"
	"bsched/internal/server"
	"bsched/internal/sim"
	"bsched/internal/unroll"
	"bsched/internal/workload"
)

// benchRunner mirrors experiments.QuickRunner: enough trials for stable
// shapes, small enough to iterate.
func benchRunner() *experiments.Runner {
	return &experiments.Runner{Trials: 10, Resamples: 40, Seed: 1993}
}

func benchProgs() (map[string]*ir.Program, []string) {
	return workload.All(), workload.BenchmarkNames()
}

// BenchmarkFigure2 regenerates the three schedules of Figure 2.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Figure2(); len(out) == 0 {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkFigure3 regenerates the interlock-vs-latency data of Figure 3.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure3(8)
		if len(rows) != 8 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkFigure5 regenerates the balanced schedule of Figure 5.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Figure5(); len(out) == 0 {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkTable1 regenerates the weight-contribution matrix of Table 1.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table1(); len(out) == 0 {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (all benchmarks × all systems,
// UNLIMITED processor).
func BenchmarkTable2(b *testing.B) {
	progs, names := benchProgs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		rows := r.Table2(progs, names)
		if len(rows) != 17 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTable3 regenerates the MDG detail table across all three
// processor models.
func BenchmarkTable3(b *testing.B) {
	progs, _ := benchProgs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		rows, _ := r.Table3(progs["MDG"])
		if len(rows) != 17 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTable4 regenerates the spill-percentage table (compilation
// only, no simulation).
func BenchmarkTable4(b *testing.B) {
	progs, names := benchProgs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		rows := r.Table4(progs, names)
		if len(rows) != len(names) {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTable5 regenerates the N(30,5) breakdown table.
func BenchmarkTable5(b *testing.B) {
	progs, names := benchProgs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		rows := r.Table5(progs, names)
		if len(rows) != len(names) {
			b.Fatal("bad row count")
		}
	}
}

// --- Algorithm microbenchmarks -------------------------------------------

func randomBlock(n int) *ir.Block {
	rng := rand.New(rand.NewSource(99))
	return workload.Random(rng, workload.DefaultRandomParams(n))
}

// weightsBench returns the benchmark body for one credit-pass
// configuration (the Fig. 6 weight analysis on an n-instruction random
// block). Extracted so TestBenchJSON can run the same body through
// testing.Benchmark, which does not support b.Run sub-benchmarks.
func weightsBench(n int, opts core.Options) func(b *testing.B) {
	blk := randomBlock(n)
	g := deps.Build(blk, deps.BuildOptions{})
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.Weights(g, opts)
		}
	}
}

// policyWeightsBench returns the benchmark body for one portfolio
// policy's weighting pass on an n-instruction random block — the cost
// side of the policy registry (docs/POLICIES.md). Extracted, like
// weightsBench, so TestBenchJSON can reuse the body.
func policyWeightsBench(name string, n int) func(b *testing.B) {
	p, ok := sched.PolicyByName(name)
	blk := randomBlock(n)
	g := deps.Build(blk, deps.BuildOptions{})
	return func(b *testing.B) {
		if !ok {
			b.Fatalf("policy %q not registered", name)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Weights(g, sched.PolicyConfig{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPolicyWeights measures every registered policy's weighting
// pass on the same 128-instruction block, so the portfolio's relative
// costs (balanced's analysis vs critical-path's constant fill) stay on
// the record.
func BenchmarkPolicyWeights(b *testing.B) {
	for _, name := range sched.PolicyNames() {
		b.Run(name, policyWeightsBench(name, 128))
	}
}

// BenchmarkBalancedWeights measures the Fig. 6 algorithm itself (the
// O(n²·α(n)) analysis) at several block sizes.
func BenchmarkBalancedWeights(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(sizeName(n), weightsBench(n, core.Options{}))
	}
}

// BenchmarkBalancedWeightsUnionFind measures the paper's union-find
// variant for comparison (ablation A2's cost side).
func BenchmarkBalancedWeightsUnionFind(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(sizeName(n), weightsBench(n, core.Options{Chances: core.ChancesUnionFind}))
	}
}

// BenchmarkListSchedule measures the shared list scheduler.
func BenchmarkListSchedule(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(sizeName(n), listScheduleBench(n))
	}
}

// listScheduleBench and depsBuildBench are the per-layer benchmark
// bodies, extracted (like weightsBench) so TestBenchJSON can run them
// under testing.Benchmark.
func listScheduleBench(n int) func(b *testing.B) {
	g := deps.Build(randomBlock(n), deps.BuildOptions{})
	w := sched.Traditional(2)
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sched.Schedule(g, w)
		}
	}
}

// BenchmarkDepsBuild measures code-DAG construction.
func BenchmarkDepsBuild(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(sizeName(n), depsBuildBench(n))
	}
}

func depsBuildBench(n int) func(b *testing.B) {
	blk := randomBlock(n)
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			deps.Build(blk, deps.BuildOptions{})
		}
	}
}

// BenchmarkRegalloc measures the local allocator under pressure.
func BenchmarkRegalloc(b *testing.B) {
	src := randomBlock(256)
	cfg := regalloc.Config{Regs: 16, SpillPool: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := src.Clone()
		if _, err := regalloc.Run(blk, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileBlock measures the full two-pass pipeline on a
// realistic kernel.
func BenchmarkCompileBlock(b *testing.B) {
	blk := workload.MDForce("md", 1, 4)
	opts := pipeline.Balanced()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.CompileBlock(blk, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColoringAllocator measures the Chaitin/Briggs backend under
// pressure, for comparison with BenchmarkRegalloc.
func BenchmarkColoringAllocator(b *testing.B) {
	src := randomBlock(256)
	cfg := regalloc.Config{Regs: 16, SpillPool: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := src.Clone()
		if _, err := regalloc.RunColoring(blk, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnroll measures the automatic loop unroller.
func BenchmarkUnroll(b *testing.B) {
	base := workload.Gather("u", 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := unroll.Unroll(base, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticEstimate measures the closed-form stall model against
// a compiled kernel.
func BenchmarkAnalyticEstimate(b *testing.B) {
	blk := workload.MDForce("md", 1, 4)
	compiled, err := pipeline.CompileBlock(blk, pipeline.Balanced())
	if err != nil {
		b.Fatal(err)
	}
	dist := memlat.NewNormal(3, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analytic.EstimateRuntime(compiled.Block.Instrs, dist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures the block simulator with a stochastic
// memory system on each processor model.
func BenchmarkSimulate(b *testing.B) {
	blk := workload.FFT("f", 1, 6)
	compiled, err := pipeline.CompileBlock(blk, pipeline.Balanced())
	if err != nil {
		b.Fatal(err)
	}
	mem := memlat.NewNormal(3, 5)
	for _, proc := range machine.PaperModels() {
		b.Run(proc.Name(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < b.N; i++ {
				sim.RunBlock(compiled.Block.Instrs, proc, mem, rng, sim.Options{})
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 32:
		return "n32"
	case 128:
		return "n128"
	default:
		return "n512"
	}
}

// BenchmarkOOO measures the idealized out-of-order core (A17's engine).
func BenchmarkOOO(b *testing.B) {
	blk := workload.FFT("f", 1, 6)
	compiled, err := pipeline.CompileBlock(blk, pipeline.Balanced())
	if err != nil {
		b.Fatal(err)
	}
	mem := memlat.NewNormal(3, 5)
	cfg := ooo.Config{Window: 16, Width: 4}
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ooo.Run(compiled.Block.Instrs, cfg, mem, rng)
	}
}

// BenchmarkServerCacheHitVsMiss measures the compilation service's
// end-to-end HTTP service time (decode, parse, fingerprint, queue,
// compile, respond) for cold compilations versus content-addressed cache
// hits — the serving hot path bschedd lives on. "miss" mutates the
// program every iteration so every request compiles; "hit" repeats one
// program so every request after the first is served from cache.
func BenchmarkServerCacheHitVsMiss(b *testing.B) {
	b.Run("miss", serveMissBench)
	b.Run("hit", serveHitBench)
}

const serveBenchTemplate = `func demo
block body freq=100
  v0 = const %d
  v1 = load x[v0+0]
  v2 = load x[v0+8]
  v3 = fadd v1, v2
  v4 = load idx[v0+0]
  v5 = load table[v4+0]
  v6 = fmul v3, v5
  store out[v0+0], v6
  v7 = addi v0, 8
  v8 = slt v7, v6
  br v8, body
end
`

func serveBenchPost(b *testing.B, url, program string) {
	b.Helper()
	body, err := json.Marshal(map[string]any{"program": program})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %s", resp.Status)
	}
}

// serveMissBench / serveHitBench are the serve-path benchmark bodies,
// extracted (like weightsBench) so TestBenchJSON can run them under
// testing.Benchmark.
func serveMissBench(b *testing.B) {
	// Large cache so eviction cost is not part of the measurement;
	// every program is distinct, so every request is a cold compile.
	srv, err := server.New(server.Config{CacheCapacity: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBenchPost(b, ts.URL, fmt.Sprintf(serveBenchTemplate, i+1))
	}
}

func serveHitBench(b *testing.B) {
	srv, err := server.New(server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	program := fmt.Sprintf(serveBenchTemplate, 8)
	serveBenchPost(b, ts.URL, program) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBenchPost(b, ts.URL, program)
	}
}

// BenchmarkBatchBlockReuse measures the block-granular cache under
// /v1/compile/batch: two 10-block programs per request sharing 0%, 50%
// or 90% of their blocks. Higher sharing means fewer distinct block
// fingerprints, so the shared blocks compile once and the rest of the
// batch is served by single-flight coalescing — the per-request cost
// should fall as the share rises.
func BenchmarkBatchBlockReuse(b *testing.B) {
	for _, shared := range []int{0, 50, 90} {
		b.Run(fmt.Sprintf("share%d", shared), batchReuseBench(shared))
	}
}

// reuseBlock renders one cache-distinct block: the label and the leading
// constant together make the block fingerprint unique.
func reuseBlock(label string, c int) string {
	return fmt.Sprintf(`block %s freq=10
  v0 = const %d
  v1 = load x[v0+0]
  v2 = load x[v0+8]
  v3 = fadd v1, v2
  store y[v0+0], v3
end
`, label, c)
}

// reusePrograms builds the two 10-block programs for one batch
// iteration: sharedPct percent of the blocks are textually identical
// between them, the rest are distinct, and every constant is namespaced
// by iter so no block ever hits a previous iteration's cache entry.
func reusePrograms(iter, sharedPct int) (string, string) {
	const blocks = 10
	shared := blocks * sharedPct / 100
	base := iter * 1000
	var a, pb bytes.Buffer
	a.WriteString("func fa\n")
	pb.WriteString("func fb\n")
	for i := 0; i < shared; i++ {
		blk := reuseBlock(fmt.Sprintf("s%d", i), base+i)
		a.WriteString(blk)
		pb.WriteString(blk)
	}
	for i := shared; i < blocks; i++ {
		a.WriteString(reuseBlock(fmt.Sprintf("a%d", i), base+100+i))
		pb.WriteString(reuseBlock(fmt.Sprintf("b%d", i), base+200+i))
	}
	return a.String(), pb.String()
}

// batchReuseBench returns the benchmark body for one block-share level,
// extracted (like weightsBench) so TestBenchJSON can run it under
// testing.Benchmark.
func batchReuseBench(sharedPct int) func(b *testing.B) {
	return func(b *testing.B) {
		srv, err := server.New(server.Config{CacheCapacity: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			progA, progB := reusePrograms(i, sharedPct)
			body, err := json.Marshal(map[string]any{
				"programs": []map[string]any{{"program": progA}, {"program": progB}},
			})
			if err != nil {
				b.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/compile/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %s", resp.Status)
			}
		}
	}
}

// --- Machine-readable benchmark baseline ---------------------------------

// benchJSONPath enables the `make bench-json` mode: when set,
// TestBenchJSON runs the serve-path, credit-pass and per-layer
// benchmarks under testing.Benchmark and writes their ns/op, B/op and
// allocs/op to the named JSON file (BENCH_<n>.json, n from the
// Makefile's BENCH), so performance can be diffed across changes
// without parsing go test's text output.
var benchJSONPath = flag.String("bench-json", "", "write serve-path and credit-pass benchmark results to this JSON file")

// benchJSONEntry is one benchmark's slice of the output file.
type benchJSONEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// TestBenchJSON is a no-op without -bench-json (so `go test ./...`
// never pays for it); with it, it benchmarks the serving hot path, the
// credit (weight) pass and the per-layer rows (DAG build, list schedule,
// register allocation, whole-block compile) and writes the
// machine-readable baseline.
func TestBenchJSON(t *testing.T) {
	if *benchJSONPath == "" {
		t.Skip("enable with -bench-json <file> (make bench-json)")
	}
	type benchCase struct {
		name string
		body func(b *testing.B)
	}
	cases := []benchCase{
		{"ServerCacheHitVsMiss/miss", serveMissBench},
		{"ServerCacheHitVsMiss/hit", serveHitBench},
		{"BatchBlockReuse/share0", batchReuseBench(0)},
		{"BatchBlockReuse/share50", batchReuseBench(50)},
		{"BatchBlockReuse/share90", batchReuseBench(90)},
		{"BalancedWeights/n32", weightsBench(32, core.Options{})},
		{"BalancedWeights/n128", weightsBench(128, core.Options{})},
		{"BalancedWeights/n512", weightsBench(512, core.Options{})},
		{"BalancedWeightsUnionFind/n32", weightsBench(32, core.Options{Chances: core.ChancesUnionFind})},
		{"BalancedWeightsUnionFind/n128", weightsBench(128, core.Options{Chances: core.ChancesUnionFind})},
		{"BalancedWeightsUnionFind/n512", weightsBench(512, core.Options{Chances: core.ChancesUnionFind})},
	}
	for _, name := range sched.PolicyNames() {
		cases = append(cases, benchCase{"PolicyWeights/" + name, policyWeightsBench(name, 128)})
	}
	for _, n := range []int{32, 128, 512} {
		cases = append(cases,
			benchCase{"DepsBuild/" + sizeName(n), depsBuildBench(n)},
			benchCase{"ListSchedule/" + sizeName(n), listScheduleBench(n)})
	}
	cases = append(cases,
		benchCase{"Regalloc", BenchmarkRegalloc},
		benchCase{"CompileBlock", BenchmarkCompileBlock})
	out := struct {
		GoVersion  string           `json:"go_version"`
		Benchmarks []benchJSONEntry `json:"benchmarks"`
	}{GoVersion: runtime.Version()}
	for _, c := range cases {
		r := testing.Benchmark(c.body)
		if r.N == 0 {
			t.Fatalf("%s: benchmark did not run", c.name)
		}
		e := benchJSONEntry{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		t.Logf("%s: %d iters, %.0f ns/op, %d allocs/op, %d B/op",
			e.Name, e.Iterations, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
		out.Benchmarks = append(out.Benchmarks, e)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchJSONPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark entries to %s", len(out.Benchmarks), *benchJSONPath)
}
