package regalloc

import (
	"fmt"
	"math/rand"
	"testing"

	"bsched/internal/interp"
	"bsched/internal/ir"
	"bsched/internal/workload"
)

// runBoth interprets the original and the allocated block and checks
// memory equivalence (outside the spill area).
func runBoth(t *testing.T, b *ir.Block, cfg Config) Stats {
	t.Helper()
	orig := b.Clone()
	st, err := Run(b, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for idx, in := range b.Instrs {
		for _, r := range append(in.AppendUses(nil), in.Def()) {
			if r.IsVirt() {
				t.Fatalf("instr %d still uses virtual register %v: %v", idx, r, in)
			}
			if r != ir.NoReg && r.Num() >= cfg.Regs {
				t.Fatalf("instr %d uses out-of-file register %v", idx, r)
			}
		}
	}
	so, err := interp.Run(orig.Instrs, nil)
	if err != nil {
		t.Fatalf("interp original: %v", err)
	}
	sa, err := interp.Run(b.Instrs, nil)
	if err != nil {
		t.Fatalf("interp allocated: %v", err)
	}
	if !interp.MemEqual(so, sa, StackSym) {
		t.Fatalf("allocation changed program semantics\noriginal:\n%s\nallocated:\n%s", orig, b)
	}
	return st
}

func TestNoSpillWhenFits(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = const 1
		v1 = const 2
		v2 = add v0, v1
		store out[0], v2
	`)
	st := runBoth(t, b, Config{Regs: 8, SpillPool: 3})
	if st.Spills() != 0 {
		t.Errorf("unexpected spills: %+v", st)
	}
	if st.MaxPressure != 2 {
		t.Errorf("MaxPressure = %d, want 2", st.MaxPressure)
	}
}

// pressureBlock builds a block defining n values, then consuming them in
// definition order (maximum overlap).
func pressureBlock(n int) *ir.Block {
	bld := ir.NewBuilder("p", 1)
	vals := make([]ir.Reg, n)
	for i := range vals {
		vals[i] = bld.Const(int64(i * 3))
	}
	acc := vals[0]
	for i := 1; i < n; i++ {
		acc = bld.Op2(ir.OpAdd, acc, vals[i])
	}
	bld.Store("out", ir.NoReg, 0, acc)
	return bld.Block()
}

func TestSpillsUnderPressure(t *testing.T) {
	b := pressureBlock(12)
	st := runBoth(t, b, Config{Regs: 8, SpillPool: 3}) // 5 general regs
	if st.SpillStores == 0 || st.SpillLoads == 0 {
		t.Errorf("expected spill traffic, got %+v", st)
	}
	spills := 0
	for _, in := range b.Instrs {
		if in.IsSpill {
			spills++
			if !in.Op.IsMem() || in.Sym != StackSym {
				t.Errorf("spill instruction not a stack access: %v", in)
			}
		}
	}
	if spills != st.Spills() {
		t.Errorf("marked %d spill instrs, stats say %d", spills, st.Spills())
	}
}

func TestPoolRegistersRotateFIFO(t *testing.T) {
	b := pressureBlock(14)
	cfg := Config{Regs: 9, SpillPool: 3}
	if _, err := Run(b, cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Collect the destination registers of reloads in order; with a FIFO
	// pool of 3 they must cycle r6, r7, r8, r6, ...
	var seq []ir.Reg
	for _, in := range b.Instrs {
		if in.IsSpill && in.Op.IsLoad() {
			seq = append(seq, in.Dst)
		}
	}
	if len(seq) < 4 {
		t.Skipf("not enough reloads to check rotation (%d)", len(seq))
	}
	for i, r := range seq {
		want := ir.Phys(6 + i%3)
		if r != want {
			t.Errorf("reload %d into %v, want %v (FIFO rotation)", i, r, want)
		}
	}
}

func TestUseBeforeDefRejected(t *testing.T) {
	b := ir.MustParseBlock(`
		v1 = addi v0, 1
	`)
	if _, err := Run(b, DefaultConfig()); err == nil {
		t.Fatalf("use-before-def not rejected")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Regs: 8, SpillPool: 2}, // pool too small
		{Regs: 6, SpillPool: 3}, // general pool too small
	} {
		if _, err := Run(&ir.Block{Label: "x"}, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestLiveOutSurvives(t *testing.T) {
	// v0 is live out and must not be treated as dead after its last use.
	b := ir.MustParseBlock(`
		block k freq=1
		liveout v0
		v0 = const 7
		v1 = addi v0, 1
		store out[0], v1
		end
	`)
	orig := b.Clone()
	if _, err := Run(b, Config{Regs: 8, SpillPool: 3}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	so, _ := interp.Run(orig.Instrs, nil)
	sa, _ := interp.Run(b.Instrs, nil)
	if !interp.MemEqual(so, sa, StackSym) {
		t.Fatalf("liveout handling changed semantics")
	}
}

func TestRedefinition(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = const 1
		v1 = addi v0, 1
		v0 = const 5
		v2 = add v0, v1
		store out[0], v2
	`)
	st := runBoth(t, b, Config{Regs: 8, SpillPool: 3})
	if st.Spills() != 0 {
		t.Errorf("redefinition should not spill: %+v", st)
	}
}

func TestMultipleSpilledOperands(t *testing.T) {
	// Force a three-operand instruction whose sources are all spilled:
	// the pool must supply three distinct registers.
	bld := ir.NewBuilder("fma", 1)
	a := bld.Const(2)
	b2 := bld.Const(3)
	c := bld.Const(4)
	// Blow the 4-register general pool so a, b2, c are evicted.
	var clutter []ir.Reg
	for i := 0; i < 8; i++ {
		clutter = append(clutter, bld.Const(int64(100+i)))
	}
	acc := clutter[0]
	for _, x := range clutter[1:] {
		acc = bld.Op2(ir.OpAdd, acc, x)
	}
	bld.Store("out", ir.NoReg, 8, acc)
	r := bld.Op3(ir.OpFMA, a, b2, c)
	bld.Store("out", ir.NoReg, 0, r)
	blk := bld.Block()

	st := runBoth(t, blk, Config{Regs: 7, SpillPool: 3})
	if st.SpillLoads < 3 {
		t.Errorf("expected >=3 reloads, got %+v", st)
	}
	// The fma's three sources must be three distinct registers.
	for _, in := range blk.Instrs {
		if in.Op == ir.OpFMA {
			if in.Srcs[0] == in.Srcs[1] || in.Srcs[1] == in.Srcs[2] || in.Srcs[0] == in.Srcs[2] {
				t.Errorf("fma operands collide: %v", in)
			}
		}
	}
}

// TestRandomBlocksSemanticallyEqual is the allocator's main property
// test: random blocks, varying register files, semantics preserved.
func TestRandomBlocksSemanticallyEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 10 + rng.Intn(60)
		blk := workload.Random(rng, workload.DefaultRandomParams(n))
		regs := 7 + rng.Intn(12)
		reuse := ReuseLIFO
		if trial%2 == 1 {
			reuse = ReuseFIFO
		}
		t.Run(fmt.Sprintf("trial%d_n%d_r%d_%v", trial, n, regs, reuse), func(t *testing.T) {
			runBoth(t, blk, Config{Regs: regs, SpillPool: 3, Reuse: reuse})
		})
	}
}

// TestFIFOReuseSpreadsNames: with FIFO reuse the allocator cycles through
// the register file, touching more distinct registers than LIFO packing —
// the software-renaming effect §4.1 alludes to.
func TestFIFOReuseSpreadsNames(t *testing.T) {
	distinct := func(reuse ReuseOrder) int {
		blk := workload.Dot("d", 1, 6)
		if _, err := Run(blk, Config{Regs: 24, SpillPool: 3, Reuse: reuse}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		seen := map[ir.Reg]bool{}
		for _, in := range blk.Instrs {
			if d := in.Def(); d != ir.NoReg {
				seen[d] = true
			}
		}
		return len(seen)
	}
	lifo, fifo := distinct(ReuseLIFO), distinct(ReuseFIFO)
	if fifo <= lifo {
		t.Errorf("FIFO uses %d registers, LIFO %d — expected FIFO to spread wider", fifo, lifo)
	}
}

// TestKernelsAllocate checks every workload kernel through the allocator
// with the default configuration, semantics included.
func TestKernelsAllocate(t *testing.T) {
	for name, build := range workload.Kernels() {
		t.Run(name, func(t *testing.T) {
			blk := build("k_"+name, 1, 4)
			runBoth(t, blk, DefaultConfig())
		})
	}
}

func TestRenumberAfterAllocation(t *testing.T) {
	b := pressureBlock(12)
	if _, err := Run(b, Config{Regs: 8, SpillPool: 3}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, in := range b.Instrs {
		if in.Seq != i {
			t.Fatalf("Seq not renumbered at %d", i)
		}
	}
}

// TestPhysicalLiveInsReserved: blocks that read a physical live-in (like
// the r0 of the documentation examples) must keep its value intact under
// both allocator backends, even under pressure.
func TestPhysicalLiveInsReserved(t *testing.T) {
	build := func() *ir.Block {
		bld := ir.NewBuilder("li", 1)
		var vals []ir.Reg
		for i := 0; i < 10; i++ {
			vals = append(vals, bld.OpImm(ir.OpAddI, ir.Phys(0), int64(i)))
		}
		acc := vals[0]
		for _, v := range vals[1:] {
			acc = bld.Op2(ir.OpAdd, acc, v)
		}
		fin := bld.Op2(ir.OpAdd, acc, ir.Phys(0)) // r0 read again at the end
		bld.Store("out", ir.NoReg, 0, fin)
		return bld.Block()
	}
	for name, alloc := range map[string]func(*ir.Block, Config) (Stats, error){
		"local":    Run,
		"coloring": RunColoring,
	} {
		blk := build()
		if _, err := alloc(blk, Config{Regs: 8, SpillPool: 3}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// No instruction may redefine r0.
		for idx, in := range blk.Instrs {
			if in.Def() == ir.Phys(0) {
				t.Errorf("%s: instr %d clobbers reserved r0: %v", name, idx, in)
			}
		}
		// Semantics: seed r0 and compare against a fresh interpretation of
		// the virtual original.
		orig := build()
		seed := func() *interp.State {
			s := interp.NewState()
			s.Regs[ir.Phys(0)] = 42
			return s
		}
		so, _ := interp.Run(orig.Instrs, seed())
		sa, err := interp.Run(blk.Instrs, seed())
		if err != nil {
			t.Fatalf("%s: interp: %v", name, err)
		}
		if !interp.MemEqual(so, sa, StackSym) {
			t.Errorf("%s: live-in semantics changed", name)
		}
	}
}

// TestOutOfFilePhysicalRejected: references to registers beyond the file
// are errors, not silent corruption.
func TestOutOfFilePhysicalRejected(t *testing.T) {
	b := ir.MustParseBlock(`v0 = addi r30, 1`)
	if _, err := Run(b, Config{Regs: 8, SpillPool: 3}); err == nil {
		t.Errorf("local allocator accepted r30 in an 8-register file")
	}
	b2 := ir.MustParseBlock(`v0 = addi r30, 1`)
	if _, err := RunColoring(b2, Config{Regs: 8, SpillPool: 3}); err == nil {
		t.Errorf("coloring allocator accepted r30 in an 8-register file")
	}
}
