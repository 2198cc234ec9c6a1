package workload

import (
	"fmt"

	"bsched/internal/ir"
)

// BenchmarkNames lists the eight Perfect Club analogues in the paper's
// column order.
func BenchmarkNames() []string {
	return []string{"ADM", "ARC2D", "BDNA", "FLO52Q", "MDG", "MG3D", "QCD2", "TRACK"}
}

// blockSpec is one kernel instantiation inside a benchmark: the builder,
// its parameter, and the share of the benchmark's executed instructions
// its block accounts for.
type blockSpec struct {
	build func(label string, freq float64, param int) *ir.Block
	param int
	share float64
}

// benchSpec describes one benchmark analogue.
type benchSpec struct {
	// targetMIns approximates the paper's reported instruction count for
	// the original program, in millions (Table 4's BIns column); block
	// frequencies are scaled so Σ freq·len(block) ≈ targetMIns.
	targetMIns float64
	blocks     []blockSpec
	// about documents which Perfect Club program this stands in for.
	about string
}

func jacobi(l string, f float64, p int) *ir.Block { return Jacobi5(l, f, p, 64) }

// specs defines the eight analogues. Kernel mixes are chosen to match the
// qualitative load-level-parallelism profile the paper reports for each
// program: QCD2's large bushy blocks gain the most from balanced
// scheduling, TRACK's small serial blocks the least, MDG sits in between
// with arithmetic-heavy molecular dynamics interactions, etc.
var specs = map[string]benchSpec{
	"ADM": {
		targetMIns: 2494,
		about:      "pseudospectral air pollution model: mixed stencils and recurrences",
		blocks: []blockSpec{
			{Stencil3, 2, 0.30},
			{Saxpy, 2, 0.20},
			{Recurrence, 4, 0.20},
			{Dot, 2, 0.10},
			{GatherStencil, 2, 0.20},
		},
	},
	"ARC2D": {
		targetMIns: 11149,
		about:      "implicit-scheme 2D fluid dynamics: stencil sweeps",
		blocks: []blockSpec{
			{jacobi, 4, 0.30},
			{Stencil3, 6, 0.25},
			{Recurrence, 6, 0.25}, // implicit-scheme sweeps recur along lines
			{GatherStencil, 4, 0.20},
		},
	},
	"BDNA": {
		targetMIns: 2391,
		about:      "nucleic-acid molecular dynamics: pair forces plus indexed access",
		blocks: []blockSpec{
			{MDForce, 3, 0.35},
			{Gather, 4, 0.25},
			{Recurrence, 4, 0.20},
			{ReduceTree, 28, 0.20}, // long-range energy sum: wide, register-hungry
		},
	},
	"FLO52Q": {
		targetMIns: 3323,
		about:      "transonic flow solver: relaxation with short dependence chains",
		blocks: []blockSpec{
			{jacobi, 2, 0.30},
			{Copy, 2, 0.20},
			{Recurrence, 2, 0.20},
			{Saxpy, 2, 0.15},
			{ChaseSaxpy, 2, 0.15},
		},
	},
	"MDG": {
		targetMIns: 5144,
		about:      "liquid-water molecular dynamics: dominated by pairwise forces",
		blocks: []blockSpec{
			{MDForce, 3, 0.35},
			{MDForce, 2, 0.20},
			{MDForce, 1, 0.20}, // short inner loop: little natural hiding
			{Dot, 4, 0.10},
			{Gather, 16, 0.15}, // moderate-LLP pressure: serial pairs cap hoisting
		},
	},
	"MG3D": {
		targetMIns: 60784,
		about:      "3D seismic migration: streaming memory traffic over huge grids",
		blocks: []blockSpec{
			{Copy, 4, 0.25},
			{Stencil3, 4, 0.25},
			{Recurrence, 4, 0.20}, // migration filters recur along traces
			{Dot, 6, 0.15},
			{Saxpy, 8, 0.15},
		},
	},
	"QCD2": {
		targetMIns: 1176,
		about:      "lattice gauge theory: wide complex-arithmetic blocks, abundant LLP",
		blocks: []blockSpec{
			{FFT, 6, 0.30},
			{ReduceTree, 16, 0.25},
			{Gather, 8, 0.20},
			{MatMul, 6, 0.10},
			{FFT, 8, 0.15}, // register-pressure block: the paper's QCD2 is spill-heavy
		},
	},
	"TRACK": {
		targetMIns: 398,
		about:      "missile tracking: small blocks, serial pointer chasing",
		blocks: []blockSpec{
			{Chase, 5, 0.30},
			{Recurrence, 2, 0.20},
			{Dot, 1, 0.10},
			{Gather, 2, 0.15},
			{ChaseSaxpy, 3, 0.25},
		},
	},
}

// About returns the one-line description of a benchmark analogue.
func About(name string) string { return specs[name].about }

// Benchmark builds the named Perfect Club analogue. It panics on an
// unknown name (names come from BenchmarkNames).
func Benchmark(name string) *ir.Program {
	spec, ok := specs[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown benchmark %q", name))
	}
	fn := &ir.Func{Name: name}
	for k, bs := range spec.blocks {
		label := fmt.Sprintf("%s_b%d", name, k)
		// Build once to learn the block length, then set the frequency so
		// this block contributes share·target instructions (in millions).
		probe := bs.build(label, 1, bs.param)
		freq := spec.targetMIns * bs.share / float64(len(probe.Instrs))
		blk := bs.build(label, freq, bs.param)
		fn.Blocks = append(fn.Blocks, check(blk))
	}
	prog := &ir.Program{Name: name, Funcs: []*ir.Func{fn}}
	if err := ir.Validate(prog); err != nil {
		panic(fmt.Sprintf("workload: %s: %v", name, err))
	}
	return prog
}

// All builds every benchmark analogue, keyed by name.
func All() map[string]*ir.Program {
	out := make(map[string]*ir.Program, len(specs))
	for _, n := range BenchmarkNames() {
		out[n] = Benchmark(n)
	}
	return out
}

// Summary describes the static shape of a program, for diagnostics.
type Summary struct {
	Name        string
	Blocks      int
	Instrs      int     // static instruction count
	Loads       int     // static load count
	MIns        float64 // profile-weighted executed instructions (millions)
	MaxBlockLen int
}

// Summarize computes the Summary of a program.
func Summarize(p *ir.Program) Summary {
	s := Summary{Name: p.Name}
	for _, b := range p.Blocks() {
		s.Blocks++
		s.Instrs += len(b.Instrs)
		s.Loads += b.NumLoads()
		s.MIns += b.Freq * float64(len(b.Instrs))
		if len(b.Instrs) > s.MaxBlockLen {
			s.MaxBlockLen = len(b.Instrs)
		}
	}
	return s
}
