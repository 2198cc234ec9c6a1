package regalloc

import (
	"fmt"
	"math/rand"
	"testing"

	"bsched/internal/interp"
	"bsched/internal/ir"
	"bsched/internal/workload"
)

// runColoringBoth mirrors runBoth for the coloring backend.
func runColoringBoth(t *testing.T, b *ir.Block, cfg Config) Stats {
	t.Helper()
	orig := b.Clone()
	st, err := RunColoring(b, cfg)
	if err != nil {
		t.Fatalf("RunColoring: %v", err)
	}
	for idx, in := range b.Instrs {
		for _, r := range append(in.AppendUses(nil), in.Def()) {
			if r.IsVirt() {
				t.Fatalf("instr %d still virtual: %v", idx, in)
			}
			if r != ir.NoReg && r.Num() >= cfg.Regs {
				t.Fatalf("instr %d out-of-file register %v", idx, in)
			}
		}
	}
	so, err := interp.Run(orig.Instrs, nil)
	if err != nil {
		t.Fatalf("interp original: %v", err)
	}
	sa, err := interp.Run(b.Instrs, nil)
	if err != nil {
		t.Fatalf("interp colored: %v", err)
	}
	if !interp.MemEqual(so, sa, StackSym) {
		t.Fatalf("coloring changed semantics\noriginal:\n%s\ncolored:\n%s", orig, b)
	}
	return st
}

func TestColoringNoSpillWhenFits(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = const 1
		v1 = const 2
		v2 = add v0, v1
		store out[0], v2
	`)
	st := runColoringBoth(t, b, Config{Regs: 8, SpillPool: 3})
	if st.Spills() != 0 {
		t.Errorf("unexpected spills: %+v", st)
	}
	if st.MaxPressure != 2 {
		t.Errorf("MaxPressure = %d, want 2", st.MaxPressure)
	}
}

func TestColoringSpillsUnderPressure(t *testing.T) {
	b := pressureBlock(14)
	st := runColoringBoth(t, b, Config{Regs: 8, SpillPool: 3})
	if st.Spills() == 0 {
		t.Errorf("expected spills, got %+v", st)
	}
	// Spill-everywhere: spilled defs are stored, spilled uses reloaded.
	if st.SpillStores == 0 || st.SpillLoads == 0 {
		t.Errorf("one-sided spill traffic: %+v", st)
	}
}

func TestColoringRandomBlocksSemanticallyEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		n := 10 + rng.Intn(60)
		blk := workload.Random(rng, workload.DefaultRandomParams(n))
		regs := 7 + rng.Intn(12)
		t.Run(fmt.Sprintf("trial%d_n%d_r%d", trial, n, regs), func(t *testing.T) {
			runColoringBoth(t, blk, Config{Regs: regs, SpillPool: 3})
		})
	}
}

func TestColoringKernels(t *testing.T) {
	for name, build := range workload.Kernels() {
		t.Run(name, func(t *testing.T) {
			runColoringBoth(t, build("k_"+name, 1, 4), DefaultConfig())
		})
	}
}

func TestColoringUseBeforeDefRejected(t *testing.T) {
	b := ir.MustParseBlock(`v1 = addi v0, 1`)
	if _, err := RunColoring(b, DefaultConfig()); err == nil {
		t.Fatalf("use-before-def not rejected")
	}
}

func TestColoringInterferenceRespected(t *testing.T) {
	// Two overlapping values must get distinct registers.
	b := ir.MustParseBlock(`
		v0 = const 1
		v1 = const 2
		v2 = add v0, v1
		v3 = add v0, v1
		store out[0], v2
		store out[8], v3
	`)
	runColoringBoth(t, b, Config{Regs: 8, SpillPool: 3})
	// v2 ([2,4)) overlaps v0, v1 and v3 and must differ from all three;
	// v3 ([3,5)) may legally reuse v0's register (v0 dies at 3).
	d := make([]ir.Reg, 4)
	for i, in := range b.Instrs[:4] {
		d[i] = in.Dst
	}
	if d[2] == d[0] || d[2] == d[1] || d[2] == d[3] {
		t.Errorf("v2 shares a register with an overlapping value: %v", d)
	}
	if d[1] == d[0] {
		t.Errorf("v1 shares v0's register while both live: %v", d)
	}
}

func TestColoringSpilledFMA(t *testing.T) {
	// Three spilled operands and a spilled destination must rotate
	// through a 3-register pool without a collision.
	bld := ir.NewBuilder("f", 1)
	a := bld.Const(2)
	b2 := bld.Const(3)
	c := bld.Const(5)
	var clutter []ir.Reg
	for i := 0; i < 10; i++ {
		clutter = append(clutter, bld.Const(int64(i)))
	}
	acc := clutter[0]
	for _, x := range clutter[1:] {
		acc = bld.Op2(ir.OpAdd, acc, x)
	}
	r := bld.Op3(ir.OpFMA, a, b2, c)
	bld.Store("out", ir.NoReg, 0, bld.Op2(ir.OpAdd, acc, r))
	runColoringBoth(t, bld.Block(), Config{Regs: 7, SpillPool: 3})
}
