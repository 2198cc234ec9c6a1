package regalloc

// This file keeps the allocator the package had before its state moved
// into dense arrays (maps keyed by ir.Reg, a fresh in-use map per
// instruction) as a test-only reference, and checks Run against it:
// the same allocated text, Stats and error text, over every reuse order
// and register files from the smallest valid one to 64 registers. The
// reference is the old code verbatim, with the since removed Instr.Uses
// inlined as refUses.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bsched/internal/ir"
	"bsched/internal/workload"
)

// refUses is the old Instr.Uses: every register read, the address base
// of a memory operation last, in a fresh slice.
func refUses(in *ir.Instr) []ir.Reg {
	out := make([]ir.Reg, 0, len(in.Srcs)+1)
	for _, s := range in.Srcs {
		if s != ir.NoReg {
			out = append(out, s)
		}
	}
	if in.Op.IsMem() && in.Base != ir.NoReg {
		out = append(out, in.Base)
	}
	return out
}

type refValueState struct {
	preg     ir.Reg // physical register currently holding the value, or NoReg
	spilled  bool   // value has a valid copy in its stack slot
	dirty    bool   // register copy is newer than the stack slot copy
	nextUses []int  // instruction indices of remaining uses, ascending
	liveOut  bool
	inPool   bool // currently held in a spill-pool register
}

// refRun allocates registers for the block in its current instruction order,
// rewriting it in place: virtual registers are replaced by physical ones
// and spill code is inserted. Every virtual register used in the block
// must be defined in the block before its first use (workload blocks are
// self-contained). Block LiveOut values are kept live to the end.
func refRun(b *ir.Block, cfg Config) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	// Physical registers already present in the block (live-ins like the
	// r0 of the textual examples) are reserved: they never enter the
	// allocation pools, so their values survive.
	reserved, err := refReservedPhys(b, cfg)
	if err != nil {
		return Stats{}, err
	}
	a := &refAllocator{
		cfg:    cfg,
		block:  b,
		values: make(map[ir.Reg]*refValueState),
		regOf:  make(map[ir.Reg]ir.Reg),
	}
	for i := 0; i < cfg.Regs-cfg.SpillPool; i++ {
		if r := ir.Phys(i); !reserved[r] {
			a.freeGeneral = append(a.freeGeneral, r)
		}
	}
	for i := cfg.Regs - cfg.SpillPool; i < cfg.Regs; i++ {
		if r := ir.Phys(i); !reserved[r] {
			a.pool = append(a.pool, r)
		}
	}
	if len(a.pool) < 3 || len(a.freeGeneral) < 4 {
		return Stats{}, fmt.Errorf("regalloc: block %s reserves too many physical registers", b.Label)
	}

	// Gather use positions and live-out flags.
	for idx, in := range b.Instrs {
		for _, u := range refUses(in) {
			if u.IsVirt() {
				a.value(u).nextUses = append(a.value(u).nextUses, idx)
			}
		}
	}
	for _, r := range b.LiveOut {
		if r.IsVirt() {
			a.value(r).liveOut = true
		}
	}

	// Verify define-before-use.
	defined := make(map[ir.Reg]bool)
	for idx, in := range b.Instrs {
		for _, u := range refUses(in) {
			if u.IsVirt() && !defined[u] {
				return Stats{}, fmt.Errorf("regalloc: block %s instr %d uses %v before definition", b.Label, idx, u)
			}
		}
		if d := in.Def(); d.IsVirt() {
			defined[d] = true
		}
	}

	var out []*ir.Instr
	for idx, in := range b.Instrs {
		// Rewrite uses, reloading spilled values.
		inUse := make(map[ir.Reg]bool) // pregs this instruction reads
		var rewriteErr error
		rewrite := func(r ir.Reg) ir.Reg {
			if rewriteErr != nil {
				return r
			}
			if !r.IsVirt() {
				inUse[r] = true
				return r
			}
			v := a.value(r)
			if v.preg == ir.NoReg {
				// Reload from the stack slot through the FIFO pool.
				p, err := a.takePoolReg(idx, inUse)
				if err != nil {
					rewriteErr = err
					return r
				}
				out = append(out, &ir.Instr{
					Op: ir.OpLoad, Dst: p,
					Sym: StackSym, Off: refSlotOf(r), IsSpill: true,
				})
				a.stats.SpillLoads++
				v.preg = p
				v.inPool = true
				v.dirty = false
				a.regOf[p] = r
			}
			inUse[v.preg] = true
			return v.preg
		}
		for k, s := range in.Srcs {
			in.Srcs[k] = rewrite(s)
		}
		if in.Op.IsMem() && in.Base != ir.NoReg {
			in.Base = rewrite(in.Base)
		}
		if rewriteErr != nil {
			return Stats{}, rewriteErr
		}

		// Consume this use from each value's queue; free dead values.
		for _, u := range refUses(in) {
			if vr, ok := a.regOf[u]; ok {
				v := a.value(vr)
				v.popUse(idx)
				a.maybeRelease(vr, v)
			}
		}

		// Rewrite the definition.
		if d := in.Def(); d.IsVirt() {
			v := a.value(d)
			// A redefinition abandons the register holding the old value.
			if v.preg != ir.NoReg {
				delete(a.regOf, v.preg)
				if !v.inPool {
					a.freeGeneral = append(a.freeGeneral, v.preg)
				}
				v.preg = ir.NoReg
				v.inPool = false
			}
			p, spills, err := a.allocGeneral(idx, b, inUse)
			if err != nil {
				return Stats{}, err
			}
			out = append(out, spills...)
			v.preg = p
			v.inPool = false
			v.dirty = true
			v.spilled = false
			a.regOf[p] = d
			in.Dst = p
			if pressure := len(a.regOf); pressure > a.stats.MaxPressure {
				a.stats.MaxPressure = pressure
			}
			a.maybeRelease(d, v) // a dead def frees immediately
		}

		out = append(out, in)
	}

	// Live-out values that ended up spilled stay spilled — their stack
	// slot is their home, and pool registers only ever hold clean
	// reloads, so no write-back is needed at block end.

	b.Instrs = out
	ir.Renumber(b)
	return a.stats, nil
}

type refAllocator struct {
	cfg         Config
	block       *ir.Block
	values      map[ir.Reg]*refValueState
	regOf       map[ir.Reg]ir.Reg // physical -> virtual currently held
	freeGeneral []ir.Reg
	pool        []ir.Reg // FIFO of spill-pool registers
	stats       Stats
}

func (a *refAllocator) value(r ir.Reg) *refValueState {
	v := a.values[r]
	if v == nil {
		v = &refValueState{preg: ir.NoReg}
		a.values[r] = v
	}
	return v
}

func (v *refValueState) popUse(idx int) {
	for len(v.nextUses) > 0 && v.nextUses[0] <= idx {
		v.nextUses = v.nextUses[1:]
	}
}

func (v *refValueState) nextUse() int {
	if len(v.nextUses) == 0 {
		return -1
	}
	return v.nextUses[0]
}

// maybeRelease frees the register of a value with no remaining uses.
func (a *refAllocator) maybeRelease(vr ir.Reg, v *refValueState) {
	if v.preg == ir.NoReg || v.nextUse() >= 0 || v.liveOut {
		return
	}
	delete(a.regOf, v.preg)
	if !v.inPool {
		a.freeGeneral = append(a.freeGeneral, v.preg)
	}
	v.preg = ir.NoReg
	v.inPool = false
}

// takePoolReg rotates the FIFO spill pool, displacing whatever value the
// oldest pool register still holds. Registers already read by the current
// instruction are skipped so that multiple reloads for one instruction
// never collide; if every pool register is already read, the instruction
// needs more spill registers than the file has and a PressureError is
// returned.
func (a *refAllocator) takePoolReg(idx int, inUse map[ir.Reg]bool) (ir.Reg, error) {
	p := a.pool[0]
	for tries := 0; inUse[p]; tries++ {
		if tries >= len(a.pool) {
			return ir.NoReg, &PressureError{
				Block:  a.block.Label,
				Instr:  idx,
				Detail: fmt.Sprintf("spill pool of %d exhausted by a single instruction", len(a.pool)),
			}
		}
		a.pool = append(a.pool[1:], p)
		p = a.pool[0]
	}
	a.pool = append(a.pool[1:], p)
	if vr, ok := a.regOf[p]; ok {
		// The displaced value is clean by construction (pool registers
		// only receive reloads; a redefined value lives in a general
		// register), so it just loses its register.
		v := a.value(vr)
		v.preg = ir.NoReg
		v.inPool = false
		v.spilled = true
		delete(a.regOf, p)
	}
	return p, nil
}

// allocGeneral returns a free general register, evicting the value with
// the farthest next use if none is free. Registers read by the current
// instruction are not eviction candidates; if nothing is evictable the
// block's pressure exceeds the general pool and a PressureError is
// returned.
func (a *refAllocator) allocGeneral(idx int, b *ir.Block, inUse map[ir.Reg]bool) (ir.Reg, []*ir.Instr, error) {
	if n := len(a.freeGeneral); n > 0 {
		var p ir.Reg
		if a.cfg.Reuse == ReuseFIFO {
			p = a.freeGeneral[0]
			a.freeGeneral = a.freeGeneral[1:]
		} else {
			p = a.freeGeneral[n-1]
			a.freeGeneral = a.freeGeneral[:n-1]
		}
		return p, nil, nil
	}
	// Belady: evict the general-register value used farthest in the
	// future (never-used live-out values count as +inf). Ties go to the
	// lowest physical register: a.regOf is a map, so without the
	// tie-break its random iteration order would pick the victim and the
	// same block would allocate differently from run to run.
	var victim ir.Reg
	victimUse := -2
	for p, vr := range a.regOf {
		if inUse[p] || a.value(vr).inPool {
			continue
		}
		use := a.value(vr).nextUse()
		if use < 0 {
			use = len(b.Instrs) + 1 // live-out, unused here: farthest
		}
		if use > victimUse || (use == victimUse && p < victim) {
			victimUse = use
			victim = p
		}
	}
	if victimUse == -2 {
		return ir.NoReg, nil, &PressureError{
			Block:  a.block.Label,
			Instr:  idx,
			Detail: "no evictable register (pressure exceeds general pool)",
		}
	}
	vr := a.regOf[victim]
	v := a.value(vr)
	var spillCode []*ir.Instr
	if v.dirty || !v.spilled {
		spillCode = append(spillCode, &ir.Instr{
			Op: ir.OpStore, Srcs: []ir.Reg{victim},
			Sym: StackSym, Off: refSlotOf(vr), IsSpill: true,
		})
		a.stats.SpillStores++
		v.spilled = true
		v.dirty = false
	}
	v.preg = ir.NoReg
	delete(a.regOf, victim)
	a.stats.Evictions++
	return victim, spillCode, nil
}

// refSlotOf maps a virtual register to its stack slot offset.
func refSlotOf(r ir.Reg) int64 { return int64(r.Num()) * 8 }

// refReservedPhys collects the physical registers the block already uses.
// Registers outside the allocatable file are rejected.
func refReservedPhys(b *ir.Block, cfg Config) (map[ir.Reg]bool, error) {
	reserved := make(map[ir.Reg]bool)
	note := func(r ir.Reg) error {
		if !r.IsPhys() {
			return nil
		}
		if r.Num() >= cfg.Regs {
			return fmt.Errorf("regalloc: block %s references %v outside the %d-register file", b.Label, r, cfg.Regs)
		}
		reserved[r] = true
		return nil
	}
	for _, in := range b.Instrs {
		for _, r := range append(refUses(in), in.Def()) {
			if err := note(r); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range b.LiveOut {
		if err := note(r); err != nil {
			return nil, err
		}
	}
	return reserved, nil
}

// allocOutcome is one allocator's result: the rewritten block's text
// (partly rewritten when allocation fails), the stats and the error.
type allocOutcome struct {
	text  string
	stats Stats
	err   string
}

func runAllocator(run func(*ir.Block, Config) (Stats, error), b *ir.Block, cfg Config) allocOutcome {
	blk := b.Clone()
	st, err := run(blk, cfg)
	out := allocOutcome{text: blk.String(), stats: st}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestRunMatchesReference allocates every block of workload.Corpus under
// register files from the 7-register minimum to 64, in both reuse
// orders, and requires the reference's exact outcome. The paper suite
// and the kernels run under every file; each Rich block runs under two,
// in rotation.
func TestRunMatchesReference(t *testing.T) {
	var cfgs []Config
	for _, rf := range []struct{ regs, pool int }{{7, 3}, {8, 3}, {9, 4}, {12, 4}, {16, 4}, {24, 6}, {32, 6}, {64, 8}} {
		for _, reuse := range []ReuseOrder{ReuseLIFO, ReuseFIFO} {
			cfgs = append(cfgs, Config{Regs: rf.regs, SpillPool: rf.pool, Reuse: reuse})
		}
	}
	names, blocks := workload.Corpus(600)
	// Reads of a register no instruction defines, at random positions.
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 20; k++ {
		b := workload.Rich(rng, 1+rng.Intn(64))
		at := rng.Intn(len(b.Instrs) + 1)
		undef := &ir.Instr{Op: ir.OpMove, Dst: ir.Virt(1 << 29), Srcs: []ir.Reg{ir.Virt(1<<29 + 1)}}
		b.Instrs = append(b.Instrs[:at], append([]*ir.Instr{undef}, b.Instrs[at:]...)...)
		names = append(names, fmt.Sprintf("undef/%d", k))
		blocks = append(blocks, b)
	}
	for i, b := range blocks {
		use := cfgs
		if strings.HasPrefix(names[i], "rich/") {
			use = []Config{cfgs[i%len(cfgs)], cfgs[(i*7+3)%len(cfgs)]}
		}
		for _, cfg := range use {
			want := runAllocator(refRun, b, cfg)
			got := runAllocator(Run, b, cfg)
			if got != want {
				t.Fatalf("%s %+v: allocation differs from the reference\n got err %q stats %+v\n%s\nwant err %q stats %+v\n%s",
					names[i], cfg, got.err, got.stats, got.text, want.err, want.stats, want.text)
			}
		}
	}
}
