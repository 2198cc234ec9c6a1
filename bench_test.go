// Package bsched's root benchmark harness: one testing.B benchmark per
// table and figure of the paper (run the full reproduction with
// cmd/paperrepro), plus microbenchmarks of the algorithms themselves.
//
//	go test -bench=. -benchmem
package bsched

import (
	"bytes"
	"context"
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
	"bsched/internal/budget"
	"bsched/internal/compile"
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
// pass on the same blocks, so the portfolio's relative costs
// (balanced's analysis vs critical-path's constant fill) stay on the
// record: <policy> at 128 instructions, <policy>/n32 and <policy>/n512.
func BenchmarkPolicyWeights(b *testing.B) {
	for _, name := range sched.PolicyNames() {
		b.Run(name, policyWeightsBench(name, 128))
		for _, n := range []int{32, 512} {
			b.Run(name+"/"+sizeName(n), policyWeightsBench(name, n))
		}
	}
}

// BenchmarkBalancedWeights measures the Fig. 6 algorithm itself at
// several block sizes. The DAG, and with it the transitive closures the
// pass builds on first use, is built once, so this times the kernel
// alone; DepsWeights/miss-mix times both, as a compile does.
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

// BenchmarkIRParse, BenchmarkIRFingerprint and BenchmarkIRPrint measure
// the IR codec the server runs on every request: parsing a program's
// text, hashing a block into its cache key, and printing a compiled
// block back to text.
func BenchmarkIRParse(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(sizeName(n), irParseBench(n))
	}
}

func BenchmarkIRFingerprint(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(sizeName(n), irFingerprintBench(n))
	}
}

func BenchmarkIRPrint(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(sizeName(n), irPrintBench(n))
	}
}

func irParseBench(n int) func(b *testing.B) {
	src := "func f\n" + randomBlock(n).String()
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ir.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func irFingerprintBench(n int) func(b *testing.B) {
	blk := randomBlock(n)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blk.Fingerprint()
		}
	}
}

func irPrintBench(n int) func(b *testing.B) {
	blk := randomBlock(n)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = blk.String()
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

// BenchmarkRunBlock measures compile.RunBlock, the path a bschedd
// worker runs on a cache miss.
func BenchmarkRunBlock(b *testing.B) {
	b.Run("miss-mix", runBlockMissMixBench())
}

// runBlockMissMixBench returns the benchmark body for BenchmarkRunBlock:
// one op compiles, through compile.RunBlock, the missMix blocks.
func runBlockMissMixBench() func(b *testing.B) {
	blocks, opts := missMix()
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k, blk := range blocks {
				if _, err := compile.RunBlock(context.Background(), blk, opts[k]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkDepsWeights measures the credit pass as a compile runs it.
func BenchmarkDepsWeights(b *testing.B) {
	b.Run("miss-mix", depsWeightsMissMixBench())
}

// depsWeightsMissMixBench returns the benchmark body for
// BenchmarkDepsWeights: one op builds the DAG of every missMix block
// and runs the balanced weight pass on it under the block's budget, so
// it times the transitive closures the pass builds on first use as well
// as the kernel.
func depsWeightsMissMixBench() func(b *testing.B) {
	blocks, opts := missMix()
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k, blk := range blocks {
				g := deps.Build(blk, deps.BuildOptions{})
				limit := opts[k].BlockBudget
				if limit == 0 {
					limit = compile.DefaultBlockBudget
				}
				if _, err := core.WeightsBudgeted(g, core.Options{}, budget.New(context.Background(), limit)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// missMix returns a fixed seeded mix of 64 workload.Random blocks sized
// from the paper suite's block sizes, one of them at n=256 and one in
// four under the server's small budget tier (DefaultBlockBudget/16), as
// bench/'s miss-fresh requests are, with each block's compile options.
func missMix() ([]*ir.Block, []compile.Options) {
	var sizes []int
	all := workload.All()
	for _, name := range workload.BenchmarkNames() {
		for _, blk := range all[name].Blocks() {
			sizes = append(sizes, len(blk.Instrs))
		}
	}
	rng := rand.New(rand.NewSource(16))
	blocks := make([]*ir.Block, 64)
	opts := make([]compile.Options, len(blocks))
	for i := range blocks {
		n := sizes[rng.Intn(len(sizes))]
		if i == len(blocks)-1 {
			n = 256
		}
		blocks[i] = workload.Random(rng, workload.DefaultRandomParams(max(n-1, 1)))
		if i%4 == 0 {
			opts[i].BlockBudget = compile.DefaultBlockBudget / 16
		}
	}
	return blocks, opts
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
	for _, proc := range machine.PaperModels() {
		b.Run(proc.Name(), simulateBench(proc))
	}
}

// simulateBench is BenchmarkSimulate's body for one processor model,
// extracted (like weightsBench) so TestBenchJSON can run it: latency-
// sampled runs of the compiled FFT(6) block.
func simulateBench(proc machine.Config) func(b *testing.B) {
	compiled, err := pipeline.CompileBlock(workload.FFT("f", 1, 6), pipeline.Balanced())
	mem := memlat.NewNormal(3, 5)
	return func(b *testing.B) {
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < b.N; i++ {
			sim.RunBlock(compiled.Block.Instrs, proc, mem, rng, sim.Options{})
		}
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

// BenchmarkServeHandler measures the cache-hit path without the
// network: Handler().ServeHTTP called in-process on a warmed
// five-block program, replaying one encoded request body, so the row
// is the handler's own cost (decode, parse, fingerprint, lookup,
// encode). ServerCacheHitVsMiss/hit is the same path over loopback.
func BenchmarkServeHandler(b *testing.B) {
	b.Run("hit", serveHandlerHitBench)
}

func serveHandlerHitBench(b *testing.B) {
	srv, err := server.New(server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body, err := json.Marshal(map[string]any{"program": workload.All()["ADM"].String()})
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(body)
	serve := func() {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", rd))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
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
// benchmarks under testing.Benchmark and writes their ns/op, B/op,
// allocs/op and run-to-run spread to the named JSON file (BENCH_<n>.json,
// n from the Makefile's BENCH), so performance can be diffed across
// changes without parsing go test's text output.
var benchJSONPath = flag.String("bench-json", "", "write serve-path and credit-pass benchmark results to this JSON file")

// benchJSONRuns is how many testing.Benchmark runs each row takes; the
// row records the fastest.
const benchJSONRuns = 5

// benchJSONEntry is one benchmark's slice of the output file: the
// fastest of benchJSONRuns runs, and Spread, the relative distance
// between the slowest and the fastest, (max−min)/min of ns/op.
type benchJSONEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Spread      float64 `json:"spread"`
}

// TestBenchJSON is a no-op without -bench-json (so `go test ./...`
// never pays for it); with it, it benchmarks the serving hot path
// (over loopback and in-process), the credit (weight) pass alone and
// after a DAG build, and the per-layer rows (IR parse, fingerprint and
// print, DAG build, list schedule, register allocation, whole-block
// compile, the miss path's compile.RunBlock, simulation) and writes the
// machine-readable baseline, each row the best of benchJSONRuns runs.
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
		{"ServeHandler/hit", serveHandlerHitBench},
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
		cases = append(cases,
			benchCase{"PolicyWeights/" + name, policyWeightsBench(name, 128)},
			benchCase{"PolicyWeights/" + name + "/n32", policyWeightsBench(name, 32)},
			benchCase{"PolicyWeights/" + name + "/n512", policyWeightsBench(name, 512)})
	}
	for _, n := range []int{32, 128, 512} {
		cases = append(cases,
			benchCase{"DepsBuild/" + sizeName(n), depsBuildBench(n)},
			benchCase{"ListSchedule/" + sizeName(n), listScheduleBench(n)},
			benchCase{"IRParse/" + sizeName(n), irParseBench(n)},
			benchCase{"IRFingerprint/" + sizeName(n), irFingerprintBench(n)},
			benchCase{"IRPrint/" + sizeName(n), irPrintBench(n)})
	}
	cases = append(cases,
		benchCase{"Regalloc", BenchmarkRegalloc},
		benchCase{"CompileBlock", BenchmarkCompileBlock},
		benchCase{"RunBlock/miss-mix", runBlockMissMixBench()},
		benchCase{"DepsWeights/miss-mix", depsWeightsMissMixBench()},
		benchCase{"Simulate/UNLIMITED", simulateBench(machine.UNLIMITED())})
	out := struct {
		GoVersion  string           `json:"go_version"`
		Benchmarks []benchJSONEntry `json:"benchmarks"`
	}{GoVersion: runtime.Version()}
	for _, c := range cases {
		var e benchJSONEntry
		slowest := 0.0
		for run := 0; run < benchJSONRuns; run++ {
			r := testing.Benchmark(c.body)
			if r.N == 0 {
				t.Fatalf("%s: benchmark did not run", c.name)
			}
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			slowest = max(slowest, ns)
			if run == 0 || ns < e.NsPerOp {
				e = benchJSONEntry{
					Name:        c.name,
					Iterations:  r.N,
					NsPerOp:     ns,
					AllocsPerOp: r.AllocsPerOp(),
					BytesPerOp:  r.AllocedBytesPerOp(),
				}
			}
		}
		e.Spread = (slowest - e.NsPerOp) / e.NsPerOp
		t.Logf("%s: %d iters, %.0f ns/op (spread %.1f%%), %d allocs/op, %d B/op",
			e.Name, e.Iterations, e.NsPerOp, 100*e.Spread, e.AllocsPerOp, e.BytesPerOp)
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
