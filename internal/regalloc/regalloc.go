// Package regalloc implements a local (per basic block) register allocator
// with spill code generation, reproducing the compiler context of §4.1:
//
//   - allocation runs after the first scheduling pass, in scheduled order;
//   - values are assigned from a general register pool; when pressure
//     exceeds it, the value whose next use is farthest away is evicted
//     (Belady's heuristic), storing it to a stack slot if dirty;
//   - reloads draw their destination from a dedicated spill-register pool
//     managed as a FIFO queue, the paper's modification to GCC ("a FIFO
//     queue-like ordering of the registers in the pool") that rotates
//     spill register names so pass-2 scheduling sees fewer false
//     dependences;
//   - every inserted instruction is marked IsSpill, the unit of account
//     for Table 4.
//
// After allocation every register is physical; the second scheduling pass
// then contends with the anti/output dependences allocation introduced,
// exactly the restriction the paper describes.
package regalloc

import (
	"fmt"

	"bsched/internal/ir"
)

// StackSym is the alias class of spill slots. Slots are absolute
// (base-less) references with distinct offsets, so the dependence builder
// disambiguates them exactly.
const StackSym = "$stack"

// ReuseOrder controls how freed general registers are reused.
type ReuseOrder int

const (
	// ReuseLIFO reuses the most recently freed register first (GCC-like
	// dense packing). It maximizes register-name reuse and therefore the
	// anti/output dependences the second scheduling pass must respect.
	ReuseLIFO ReuseOrder = iota
	// ReuseFIFO cycles through the register file, spreading names like
	// the software register renaming §4.1 suggests as an alternative —
	// fewer false dependences for the second pass, at no extra cost.
	ReuseFIFO
)

// String names the reuse discipline ("LIFO", "FIFO").
func (o ReuseOrder) String() string {
	if o == ReuseFIFO {
		return "FIFO"
	}
	return "LIFO"
}

// Config sizes the register file.
type Config struct {
	// Regs is the total number of allocatable physical registers.
	Regs int
	// SpillPool is how many of them are reserved for spill reloads. The
	// paper enlarges GCC's pool by two; the ablation A3 varies this.
	SpillPool int
	// Reuse selects the general-register reuse discipline (ablation A6).
	Reuse ReuseOrder
}

// DefaultConfig mirrors the experimental setup: a MIPS-like file with 32
// allocatable registers, 6 of them in the spill pool (GCC's 4 plus the
// paper's enlargement by 2).
func DefaultConfig() Config { return Config{Regs: 32, SpillPool: 6} }

// Validate rejects register files too small to allocate anything.
// Exported so API edges (the compilation server) can refuse a bad
// configuration before it reaches a worker.
func (c Config) Validate() error {
	// An instruction can read up to three spilled values (fma), each
	// needing its own pool register simultaneously.
	if c.SpillPool < 3 {
		return fmt.Errorf("regalloc: spill pool must have at least 3 registers, have %d", c.SpillPool)
	}
	if c.Regs-c.SpillPool < 4 {
		return fmt.Errorf("regalloc: need at least 4 general registers, have %d", c.Regs-c.SpillPool)
	}
	return nil
}

// Stats summarizes an allocation.
type Stats struct {
	// SpillStores and SpillLoads count inserted spill instructions.
	SpillStores int
	SpillLoads  int
	// MaxPressure is the peak number of simultaneously live values.
	MaxPressure int
	// Evictions counts values forced out of registers.
	Evictions int
}

// Spills returns the total number of inserted spill instructions.
func (s Stats) Spills() int { return s.SpillStores + s.SpillLoads }

type valueState struct {
	preg     ir.Reg // physical register currently holding the value, or NoReg
	spilled  bool   // value has a valid copy in its stack slot
	dirty    bool   // register copy is newer than the stack slot copy
	nextUses []int  // instruction indices of remaining uses, ascending
	liveOut  bool
	inPool   bool // currently held in a spill-pool register
}

// Run allocates registers for the block in its current instruction order,
// rewriting it in place: virtual registers are replaced by physical ones
// and spill code is inserted. Every virtual register used in the block
// must be defined in the block before its first use (workload blocks are
// self-contained). Block LiveOut values are kept live to the end.
func Run(b *ir.Block, cfg Config) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	// Physical registers already present in the block (live-ins like the
	// r0 of the textual examples) are reserved: they never enter the
	// allocation pools, so their values survive.
	reserved, err := reservedPhys(b, cfg)
	if err != nil {
		return Stats{}, err
	}
	a := &allocator{
		cfg:    cfg,
		block:  b,
		values: make(map[ir.Reg]*valueState),
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
		for _, u := range in.Uses() {
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
		for _, u := range in.Uses() {
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
					Sym: StackSym, Off: slotOf(r), IsSpill: true,
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
		for _, u := range in.Uses() {
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

type allocator struct {
	cfg         Config
	block       *ir.Block
	values      map[ir.Reg]*valueState
	regOf       map[ir.Reg]ir.Reg // physical -> virtual currently held
	freeGeneral []ir.Reg
	pool        []ir.Reg // FIFO of spill-pool registers
	stats       Stats
}

func (a *allocator) value(r ir.Reg) *valueState {
	v := a.values[r]
	if v == nil {
		v = &valueState{preg: ir.NoReg}
		a.values[r] = v
	}
	return v
}

func (v *valueState) popUse(idx int) {
	for len(v.nextUses) > 0 && v.nextUses[0] <= idx {
		v.nextUses = v.nextUses[1:]
	}
}

func (v *valueState) nextUse() int {
	if len(v.nextUses) == 0 {
		return -1
	}
	return v.nextUses[0]
}

// maybeRelease frees the register of a value with no remaining uses.
func (a *allocator) maybeRelease(vr ir.Reg, v *valueState) {
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
func (a *allocator) takePoolReg(idx int, inUse map[ir.Reg]bool) (ir.Reg, error) {
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
func (a *allocator) allocGeneral(idx int, b *ir.Block, inUse map[ir.Reg]bool) (ir.Reg, []*ir.Instr, error) {
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
			Sym: StackSym, Off: slotOf(vr), IsSpill: true,
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

// slotOf maps a virtual register to its stack slot offset.
func slotOf(r ir.Reg) int64 { return int64(r.Num()) * 8 }

// reservedPhys collects the physical registers the block already uses.
// Registers outside the allocatable file are rejected.
func reservedPhys(b *ir.Block, cfg Config) (map[ir.Reg]bool, error) {
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
		for _, r := range append(in.Uses(), in.Def()) {
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
