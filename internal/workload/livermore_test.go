package workload

import (
	"testing"

	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/interp"
	"bsched/internal/ir"
	"bsched/internal/sched"
)

func TestLivermoreKernelsValid(t *testing.T) {
	for name, build := range LivermoreKernels() {
		for _, u := range []int{1, 3, 6} {
			blk := build("k_"+name, 1, u)
			if err := ir.ValidateBlock(blk); err != nil {
				t.Errorf("%s(%d): %v", name, u, err)
			}
			if blk.NumLoads() == 0 {
				t.Errorf("%s(%d): no loads", name, u)
			}
		}
	}
}

func TestLivermoreProgram(t *testing.T) {
	prog := Livermore()
	if err := ir.Validate(prog); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	s := Summarize(prog)
	if s.Blocks != 8 {
		t.Errorf("blocks = %d, want 8", s.Blocks)
	}
	if s.MIns < 900 || s.MIns > 1100 {
		t.Errorf("MIns = %g, want ≈1000", s.MIns)
	}
}

// TestLivermoreProfiles pins the kernels' characters: LL11 (prefix sum)
// is a serial recurrence whose loads see little parallelism; LL12 (first
// difference) is fully parallel.
func TestLivermoreProfiles(t *testing.T) {
	mean := func(b *ir.Block) float64 {
		g := deps.Build(b, deps.BuildOptions{})
		llp := core.LoadLevelParallelism(g)
		s := 0.0
		for _, v := range llp {
			s += float64(v)
		}
		return s / float64(len(llp))
	}
	serial := mean(LL11("a", 1, 6))
	parallel := mean(LL12("b", 1, 6))
	if parallel < 1.5*serial {
		t.Errorf("LL12 LLP %.1f not ≫ LL11 LLP %.1f", parallel, serial)
	}
}

// TestLivermoreSchedulesPreserveSemantics runs every LFK kernel through
// both schedulers against the reference interpreter.
func TestLivermoreSchedulesPreserveSemantics(t *testing.T) {
	for name, build := range LivermoreKernels() {
		blk := build("k_"+name, 1, 4)
		orig, err := interp.Run(blk.Instrs, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := deps.Build(blk, deps.BuildOptions{})
		for wn, w := range map[string][]float64{
			"trad": sched.TraditionalWeights(g, 5),
			"bal":  core.Weights(g, core.Options{}),
		} {
			res, _ := sched.Schedule(g, w, sched.Heuristics{}, nil)
			got, err := interp.Run(res.Order, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, wn, err)
			}
			if !interp.MemEqual(orig, got) {
				t.Errorf("%s/%s: semantics changed", name, wn)
			}
		}
	}
}

// TestLL5IsRecurrence: the carried x value chains successive iterations —
// each iteration's multiply transitively depends on the previous one's.
func TestLL5IsRecurrence(t *testing.T) {
	blk := LL5("k", 1, 4)
	g := deps.Build(blk, deps.BuildOptions{})
	var muls []int
	for i, in := range blk.Instrs {
		if in.Op == ir.OpFMul {
			muls = append(muls, i)
		}
	}
	if len(muls) != 4 {
		t.Fatalf("got %d multiplies", len(muls))
	}
	for k := 1; k < len(muls); k++ {
		if !g.PredClosure(muls[k]).Has(muls[k-1]) {
			t.Errorf("iteration %d does not depend on iteration %d", k, k-1)
		}
	}
	// The stores themselves hit distinct offsets and must NOT conflict.
	var stores []int
	for i, in := range blk.Instrs {
		if in.Op.IsStore() && in.Sym == "x" {
			stores = append(stores, i)
		}
	}
	for k := 1; k < len(stores); k++ {
		for _, e := range g.Preds[stores[k]] {
			if e.To == stores[k-1] && e.Kind == deps.Mem {
				t.Errorf("stores %d and %d falsely conflict", k-1, k)
			}
		}
	}
}

func TestIntKernelsValid(t *testing.T) {
	for name, build := range IntKernels() {
		for _, p := range []int{1, 3, 6} {
			blk := build("k_"+name, 1, p)
			if err := ir.ValidateBlock(blk); err != nil {
				t.Errorf("%s(%d): %v", name, p, err)
			}
			if blk.NumLoads() == 0 {
				t.Errorf("%s(%d): no loads", name, p)
			}
		}
	}
}

func TestIntMixProgram(t *testing.T) {
	prog := IntMix()
	if err := ir.Validate(prog); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	s := Summarize(prog)
	if s.Blocks != 4 || s.MIns < 450 || s.MIns > 550 {
		t.Errorf("summary off: %+v", s)
	}
}

// TestIntKernelsSchedulePreservesSemantics runs the integer kernels
// through both schedulers against the reference interpreter.
func TestIntKernelsSchedulePreservesSemantics(t *testing.T) {
	for name, build := range IntKernels() {
		blk := build("k_"+name, 1, 4)
		orig, err := interp.Run(blk.Instrs, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := deps.Build(blk, deps.BuildOptions{})
		for wn, w := range map[string][]float64{
			"trad": sched.TraditionalWeights(g, 5),
			"bal":  core.Weights(g, core.Options{}),
		} {
			res, _ := sched.Schedule(g, w, sched.Heuristics{}, nil)
			got, err := interp.Run(res.Order, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, wn, err)
			}
			if !interp.MemEqual(orig, got) {
				t.Errorf("%s/%s: semantics changed", name, wn)
			}
		}
	}
}

// TestHistogramBucketOrderPreserved: read-modify-write traffic to the
// same (conservative) bucket symbol must keep its order.
func TestHistogramBucketOrderPreserved(t *testing.T) {
	blk := Histogram("h", 1, 3)
	g := deps.Build(blk, deps.BuildOptions{})
	var stores []int
	for i, in := range blk.Instrs {
		if in.Op.IsStore() && in.Sym == "hist" {
			stores = append(stores, i)
		}
	}
	if len(stores) != 3 {
		t.Fatalf("got %d hist stores", len(stores))
	}
	// Bucket addresses are data-dependent (different base registers), so
	// successive stores must conservatively conflict.
	for k := 1; k < len(stores); k++ {
		if !g.PredClosure(stores[k]).Has(stores[k-1]) {
			t.Errorf("hist store %d not ordered after store %d", k, k-1)
		}
	}
}
