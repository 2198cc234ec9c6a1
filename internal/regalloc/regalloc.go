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

// valueState is one virtual register's value.
type valueState struct {
	preg    ir.Reg // physical register currently holding the value, or NoReg
	spilled bool   // value has a valid copy in its stack slot
	dirty   bool   // register copy is newer than the stack slot copy
	liveOut bool
	inPool  bool // currently held in a spill-pool register
	defined bool // some instruction defines it (checked before allocation)
	// usePos[next:end] are the instruction indices of the remaining
	// uses, ascending.
	next, end int32
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
	a, err := newAllocator(b, cfg, reserved)
	if err != nil {
		return Stats{}, err
	}
	for idx, in := range b.Instrs {
		// Rewrite uses, reloading spilled values.
		for k, s := range in.Srcs {
			r, err := a.use(s, idx)
			if err != nil {
				return Stats{}, err
			}
			in.Srcs[k] = r
		}
		if in.Op.IsMem() && in.Base != ir.NoReg {
			r, err := a.use(in.Base, idx)
			if err != nil {
				return Stats{}, err
			}
			in.Base = r
		}

		// Consume this use from each value's queue; free dead values.
		a.uses = in.AppendUses(a.uses[:0])
		for _, u := range a.uses {
			if u.IsPhys() {
				if id := a.holder[u.Num()]; id >= 0 {
					a.popUse(id, idx)
					a.maybeRelease(id)
				}
			}
		}

		// Rewrite the definition.
		if id := a.defIDs[idx]; id >= 0 {
			v := &a.values[id]
			// A redefinition abandons the register holding the old value.
			if v.preg != ir.NoReg {
				a.release(v)
			}
			p, spill, err := a.allocGeneral(idx)
			if err != nil {
				return Stats{}, err
			}
			if spill != nil {
				a.out = append(a.out, spill)
			}
			v.preg = p
			v.inPool = false
			v.dirty = true
			v.spilled = false
			a.hold(p, id)
			in.Dst = p
			if a.held > a.stats.MaxPressure {
				a.stats.MaxPressure = a.held
			}
			a.maybeRelease(id) // a dead def frees immediately
		}

		a.out = append(a.out, in)
	}

	// Live-out values that ended up spilled stay spilled — their stack
	// slot is their home, and pool registers only ever hold clean
	// reloads, so no write-back is needed at block end.

	b.Instrs = a.out
	ir.Renumber(b)
	return a.stats, nil
}

// allocator is Run's state. Virtual registers are numbered densely, so
// value states live in one slice, and physical registers are indexed
// by their number, so occupancy is one slice scanned in ascending
// register order.
type allocator struct {
	cfg    Config
	block  *ir.Block
	ids    map[ir.Reg]int32 // virtual register -> dense number
	regs   []ir.Reg         // dense number -> virtual register
	values []valueState     // by dense number
	usePos []int32          // every value's use positions, value after value
	// useIDs lists the dense number of every virtual register read, in
	// the order Run rewrites them: block order, sources before the base;
	// nextRead is the next one Run rewrites.
	useIDs   []int32
	nextRead int
	defIDs   []int32 // per instruction: the dense number it defines, or -1
	// Per physical register number: the value it holds (-1 for none),
	// and idx+1 while instruction idx reads it.
	holder, reading []int32
	held            int // registers holding a value
	free            regRing
	pool            []ir.Reg // spill-pool registers, rotated FIFO from poolHead
	poolHead        int
	uses            []ir.Reg
	out             []*ir.Instr
	stats           Stats
}

// newAllocator fills the pools from the registers the block does not
// reserve, numbers the block's virtual registers and lays out each
// value's use positions. It rejects a block that reserves too much of
// the file, then a read of a virtual register before its definition.
func newAllocator(b *ir.Block, cfg Config, reserved []bool) (*allocator, error) {
	n := len(b.Instrs)
	reads := 0
	for _, in := range b.Instrs {
		reads += len(in.Srcs) + 1
	}
	a := &allocator{
		cfg:    cfg,
		block:  b,
		ids:    make(map[ir.Reg]int32, n),
		regs:   make([]ir.Reg, 0, n+len(b.LiveOut)),
		values: make([]valueState, 0, n+len(b.LiveOut)),
		useIDs: make([]int32, 0, reads),
		defIDs: make([]int32, n),
		uses:   make([]ir.Reg, 0, 4),
		out:    make([]*ir.Instr, 0, n+n/4),
	}
	phys := make([]int32, 2*cfg.Regs)
	a.holder, a.reading = phys[:cfg.Regs], phys[cfg.Regs:]
	var undefErr error
	useAt := make([]int32, 0, reads) // the instruction of each useIDs entry
	for idx, in := range b.Instrs {
		a.uses = in.AppendUses(a.uses[:0])
		for _, r := range a.uses {
			if !r.IsVirt() {
				continue
			}
			id := a.id(r)
			a.useIDs = append(a.useIDs, id)
			useAt = append(useAt, int32(idx))
			a.values[id].end++ // counts the uses until they are laid out
			if !a.values[id].defined && undefErr == nil {
				undefErr = fmt.Errorf("regalloc: block %s instr %d uses %v before definition", b.Label, idx, r)
			}
		}
		a.defIDs[idx] = -1
		if d := in.Def(); d.IsVirt() {
			a.defIDs[idx] = a.id(d)
			a.values[a.defIDs[idx]].defined = true
		}
	}
	for _, r := range b.LiveOut {
		if r.IsVirt() {
			a.values[a.id(r)].liveOut = true
		}
	}

	general := cfg.Regs - cfg.SpillPool
	a.free.buf = make([]ir.Reg, 0, general)
	for i := 0; i < general; i++ {
		if !reserved[i] {
			a.free.buf = append(a.free.buf, ir.Phys(i))
		}
	}
	a.free.size = len(a.free.buf)
	a.pool = make([]ir.Reg, 0, cfg.SpillPool)
	for i := general; i < cfg.Regs; i++ {
		if !reserved[i] {
			a.pool = append(a.pool, ir.Phys(i))
		}
	}
	if len(a.pool) < 3 || a.free.size < 4 {
		return nil, fmt.Errorf("regalloc: block %s reserves too many physical registers", b.Label)
	}
	if undefErr != nil {
		return nil, undefErr
	}

	// Lay each value's use positions out contiguously, ascending.
	start := int32(0)
	for i := range a.values {
		v := &a.values[i]
		count := v.end
		v.next, v.end = start, start
		start += count
	}
	a.usePos = make([]int32, start)
	for k, id := range a.useIDs {
		v := &a.values[id]
		a.usePos[v.end] = useAt[k]
		v.end++
	}
	for i := range a.holder {
		a.holder[i] = -1
	}
	return a, nil
}

// id returns virtual register r's dense number, numbering it on first
// sight.
func (a *allocator) id(r ir.Reg) int32 {
	id, ok := a.ids[r]
	if !ok {
		id = int32(len(a.regs))
		a.ids[r] = id
		a.regs = append(a.regs, r)
		a.values = append(a.values, valueState{preg: ir.NoReg})
	}
	return id
}

// use rewrites one register read of instruction idx, reloading a
// spilled value through the FIFO pool.
func (a *allocator) use(r ir.Reg, idx int) (ir.Reg, error) {
	if !r.IsVirt() {
		if r.IsPhys() {
			a.reading[r.Num()] = int32(idx + 1)
		}
		return r, nil
	}
	id := a.useIDs[a.nextRead]
	a.nextRead++
	v := &a.values[id]
	if v.preg == ir.NoReg {
		// Reload from the stack slot through the FIFO pool.
		p, err := a.takePoolReg(idx)
		if err != nil {
			return r, err
		}
		a.out = append(a.out, &ir.Instr{
			Op: ir.OpLoad, Dst: p,
			Sym: StackSym, Off: slotOf(r), IsSpill: true,
		})
		a.stats.SpillLoads++
		v.preg = p
		v.inPool = true
		v.dirty = false
		a.hold(p, id)
	}
	a.reading[v.preg.Num()] = int32(idx + 1)
	return v.preg, nil
}

// read reports whether instruction idx reads physical register p.
func (a *allocator) read(p ir.Reg, idx int) bool { return a.reading[p.Num()] == int32(idx+1) }

// hold records that p now holds value id.
func (a *allocator) hold(p ir.Reg, id int32) {
	a.holder[p.Num()] = id
	a.held++
}

// release frees the register holding v, returning a general register to
// the free list.
func (a *allocator) release(v *valueState) {
	a.holder[v.preg.Num()] = -1
	a.held--
	if !v.inPool {
		a.free.push(v.preg)
	}
	v.preg = ir.NoReg
	v.inPool = false
}

// popUse drops value id's uses at or before instruction idx.
func (a *allocator) popUse(id int32, idx int) {
	v := &a.values[id]
	for v.next < v.end && int(a.usePos[v.next]) <= idx {
		v.next++
	}
}

// nextUse returns value id's next use position, or -1 if none remain.
func (a *allocator) nextUse(id int32) int {
	if v := &a.values[id]; v.next < v.end {
		return int(a.usePos[v.next])
	}
	return -1
}

// maybeRelease frees the register of a value with no remaining uses.
func (a *allocator) maybeRelease(id int32) {
	v := &a.values[id]
	if v.preg == ir.NoReg || a.nextUse(id) >= 0 || v.liveOut {
		return
	}
	a.release(v)
}

// takePoolReg rotates the FIFO spill pool, displacing whatever value the
// oldest pool register still holds. Registers already read by the current
// instruction are skipped so that multiple reloads for one instruction
// never collide; if every pool register is already read, the instruction
// needs more spill registers than the file has and a PressureError is
// returned.
func (a *allocator) takePoolReg(idx int) (ir.Reg, error) {
	p := a.pool[a.poolHead]
	for tries := 0; a.read(p, idx); tries++ {
		if tries >= len(a.pool) {
			return ir.NoReg, &PressureError{
				Block:  a.block.Label,
				Instr:  idx,
				Detail: fmt.Sprintf("spill pool of %d exhausted by a single instruction", len(a.pool)),
			}
		}
		a.poolHead = (a.poolHead + 1) % len(a.pool)
		p = a.pool[a.poolHead]
	}
	a.poolHead = (a.poolHead + 1) % len(a.pool)
	if id := a.holder[p.Num()]; id >= 0 {
		// The displaced value is clean by construction (pool registers
		// only receive reloads; a redefined value lives in a general
		// register), so it just loses its register.
		v := &a.values[id]
		v.preg = ir.NoReg
		v.inPool = false
		v.spilled = true
		a.holder[p.Num()] = -1
		a.held--
	}
	return p, nil
}

// allocGeneral returns a free general register, evicting the value with
// the farthest next use if none is free, and the spill store the
// eviction needs, if any. Registers read by the current instruction are
// not eviction candidates; if nothing is evictable the block's pressure
// exceeds the general pool and a PressureError is returned.
func (a *allocator) allocGeneral(idx int) (ir.Reg, *ir.Instr, error) {
	if a.free.size > 0 {
		if a.cfg.Reuse == ReuseFIFO {
			return a.free.popFront(), nil, nil
		}
		return a.free.popBack(), nil, nil
	}
	// Belady: evict the general-register value used farthest in the
	// future (never-used live-out values count as +inf). Scanning the
	// registers in ascending order gives ties to the lowest one, so the
	// same block always allocates the same way.
	victim, victimUse := -1, -2
	for num, id := range a.holder {
		if id < 0 || a.read(ir.Phys(num), idx) || a.values[id].inPool {
			continue
		}
		use := a.nextUse(id)
		if use < 0 {
			use = len(a.block.Instrs) + 1 // live-out, unused here: farthest
		}
		if use > victimUse {
			victim, victimUse = num, use
		}
	}
	if victimUse == -2 {
		return ir.NoReg, nil, &PressureError{
			Block:  a.block.Label,
			Instr:  idx,
			Detail: "no evictable register (pressure exceeds general pool)",
		}
	}
	p, id := ir.Phys(victim), a.holder[victim]
	v := &a.values[id]
	var spill *ir.Instr
	if v.dirty || !v.spilled {
		spill = &ir.Instr{
			Op: ir.OpStore, Srcs: []ir.Reg{p},
			Sym: StackSym, Off: slotOf(a.regs[id]), IsSpill: true,
		}
		a.stats.SpillStores++
		v.spilled = true
		v.dirty = false
	}
	v.preg = ir.NoReg
	a.holder[victim] = -1
	a.held--
	a.stats.Evictions++
	return p, spill, nil
}

// regRing is the free general-register list: a deque over a fixed
// buffer, large enough because a register is on it at most once.
type regRing struct {
	buf        []ir.Reg
	head, size int
}

func (q *regRing) push(r ir.Reg) {
	q.buf[(q.head+q.size)%len(q.buf)] = r
	q.size++
}

func (q *regRing) popFront() ir.Reg {
	r := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return r
}

func (q *regRing) popBack() ir.Reg {
	q.size--
	return q.buf[(q.head+q.size)%len(q.buf)]
}

// slotOf maps a virtual register to its stack slot offset.
func slotOf(r ir.Reg) int64 { return int64(r.Num()) * 8 }

// reservedPhys flags, by register number, the physical registers the
// block already uses. Registers outside the allocatable file are
// rejected.
func reservedPhys(b *ir.Block, cfg Config) ([]bool, error) {
	reserved := make([]bool, cfg.Regs)
	note := func(r ir.Reg) error {
		if !r.IsPhys() {
			return nil
		}
		if r.Num() >= cfg.Regs {
			return fmt.Errorf("regalloc: block %s references %v outside the %d-register file", b.Label, r, cfg.Regs)
		}
		reserved[r.Num()] = true
		return nil
	}
	var regs []ir.Reg
	for _, in := range b.Instrs {
		regs = append(in.AppendUses(regs[:0]), in.Def())
		for _, r := range regs {
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
