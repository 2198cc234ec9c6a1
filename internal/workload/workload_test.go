package workload

import (
	"math"
	"math/rand"
	"testing"

	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/ir"
)

func TestAllKernelsValid(t *testing.T) {
	for name, build := range Kernels() {
		for _, p := range []int{1, 2, 5, 8} {
			blk := build("k", 1.5, p)
			if err := ir.ValidateBlock(blk); err != nil {
				t.Errorf("%s(%d): %v", name, p, err)
			}
			if blk.Freq != 1.5 {
				t.Errorf("%s: freq not propagated", name)
			}
			if len(blk.Instrs) == 0 {
				t.Errorf("%s(%d): empty block", name, p)
			}
		}
	}
}

func TestKernelsSelfContained(t *testing.T) {
	// Every virtual register must be defined before use — the contract
	// the register allocator relies on.
	for name, build := range Kernels() {
		blk := build("k", 1, 4)
		defined := map[ir.Reg]bool{}
		for idx, in := range blk.Instrs {
			for _, u := range in.AppendUses(nil) {
				if u.IsVirt() && !defined[u] {
					t.Errorf("%s: instr %d uses %v before definition", name, idx, u)
				}
			}
			if d := in.Def(); d != ir.NoReg {
				defined[d] = true
			}
		}
	}
}

func TestUnrollScalesLoads(t *testing.T) {
	for _, name := range []string{"saxpy", "dot", "stencil3", "copy"} {
		build := Kernels()[name]
		l2 := build("a", 1, 2).NumLoads()
		l4 := build("b", 1, 4).NumLoads()
		if l4 != 2*l2 {
			t.Errorf("%s: loads %d @2 vs %d @4, want doubling", name, l2, l4)
		}
	}
}

func TestChaseIsStrictlySerial(t *testing.T) {
	blk := Chase("c", 1, 6)
	g := deps.Build(blk, deps.BuildOptions{})
	// Each load must have weight exactly 1 + (free instrs / 6 chances) —
	// with no free instructions beyond the block epilogue, the balanced
	// weight of chase loads stays small.
	w := core.Weights(g, core.Options{})
	for i := 0; i < g.N(); i++ {
		if g.IsLoad(i) && w[i] > 2.5 {
			t.Errorf("chase load %d weight %g, expected small (serial chain)", i, w[i])
		}
	}
	// LLP of each chase load is tiny.
	for node, llp := range core.LoadLevelParallelism(g) {
		if llp > 4 {
			t.Errorf("chase load %d has LLP %d, want <= 4", node, llp)
		}
	}
}

func TestReduceTreeIsMaximallyParallel(t *testing.T) {
	blk := ReduceTree("r", 1, 8)
	g := deps.Build(blk, deps.BuildOptions{})
	llp := core.LoadLevelParallelism(g)
	for node, v := range llp {
		if v < 7 {
			t.Errorf("reduce-tree load %d has LLP %d, want >= 7", node, v)
		}
	}
}

func TestGatherLoadsInSeries(t *testing.T) {
	blk := Gather("g", 1, 1)
	g := deps.Build(blk, deps.BuildOptions{})
	// index load -> shift -> table load must form a dependent chain.
	var idxLoad, tblLoad = -1, -1
	for i, in := range blk.Instrs {
		if in.Op.IsLoad() && in.Sym == "index" {
			idxLoad = i
		}
		if in.Op.IsLoad() && in.Sym == "table" {
			tblLoad = i
		}
	}
	if idxLoad < 0 || tblLoad < 0 {
		t.Fatalf("gather loads not found")
	}
	if !g.SuccClosure(idxLoad).Has(tblLoad) {
		t.Errorf("table load does not depend on index load")
	}
}

func TestBenchmarksBuildAndMatchTargets(t *testing.T) {
	for _, name := range BenchmarkNames() {
		prog := Benchmark(name)
		if err := ir.Validate(prog); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := Summarize(prog)
		if s.Blocks == 0 || s.Loads == 0 {
			t.Errorf("%s: degenerate summary %+v", name, s)
		}
		// Frequencies are scaled to approximate the paper's instruction
		// counts (within rounding of the share split).
		want := specs[name].targetMIns
		if math.Abs(s.MIns-want)/want > 0.02 {
			t.Errorf("%s: MIns %g, want ≈%g", name, s.MIns, want)
		}
	}
}

func TestBenchmarkUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("unknown benchmark did not panic")
		}
	}()
	Benchmark("NOSUCH")
}

func TestAllReturnsEveryBenchmark(t *testing.T) {
	all := All()
	if len(all) != len(BenchmarkNames()) {
		t.Fatalf("All() has %d entries", len(all))
	}
	for _, n := range BenchmarkNames() {
		if all[n] == nil {
			t.Errorf("missing %s", n)
		}
		if About(n) == "" {
			t.Errorf("missing About(%s)", n)
		}
	}
}

func TestBenchmarkProfilesDiffer(t *testing.T) {
	// QCD2 must offer far more load level parallelism than TRACK — the
	// property driving their positions in Table 2.
	mean := func(name string) float64 {
		prog := Benchmark(name)
		sum, n := 0.0, 0
		for _, b := range prog.Blocks() {
			g := deps.Build(b, deps.BuildOptions{})
			for _, v := range core.LoadLevelParallelism(g) {
				sum += float64(v)
				n++
			}
		}
		return sum / float64(n)
	}
	qcd, track := mean("QCD2"), mean("TRACK")
	if qcd < 2*track {
		t.Errorf("QCD2 mean LLP %.1f not ≫ TRACK %.1f", qcd, track)
	}
}

func TestRandomDeterministicAndValid(t *testing.T) {
	a := Random(rand.New(rand.NewSource(5)), DefaultRandomParams(40))
	b := Random(rand.New(rand.NewSource(5)), DefaultRandomParams(40))
	if a.String() != b.String() {
		t.Errorf("same seed, different blocks")
	}
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		blk := Random(rng, DefaultRandomParams(5+trial))
		if err := ir.ValidateBlock(blk); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRandomRespectsParams(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	blk := Random(rng, RandomParams{Instrs: 400, PLoad: 1, PStore: 0, Syms: 2})
	if got := blk.NumLoads(); got != 400 {
		t.Errorf("PLoad=1 produced %d loads of 400", got)
	}
}
