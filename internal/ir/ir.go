package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Reg names a register. NoReg means "no register". Values in
// [1, virtBase) are physical registers; values >= virtBase are virtual
// registers assigned before register allocation.
type Reg int32

// NoReg is the absent register (e.g. the base of an absolute address).
const NoReg Reg = 0

const virtBase Reg = 1 << 20

// maxPhysNum is the largest valid physical register number.
const maxPhysNum = int(virtBase) - 2

// MaxVirtNum is the largest valid virtual register number.
const MaxVirtNum = int(1<<31-1) - int(virtBase)

// Phys returns the n-th physical register (n >= 0).
func Phys(n int) Reg {
	if n < 0 || n > maxPhysNum {
		panic(fmt.Sprintf("ir: bad physical register number %d", n))
	}
	return Reg(n) + 1
}

// Virt returns the n-th virtual register (n >= 0).
func Virt(n int) Reg {
	if n < 0 || n > MaxVirtNum {
		panic(fmt.Sprintf("ir: bad virtual register number %d", n))
	}
	return virtBase + Reg(n)
}

// IsPhys reports whether r is a physical register.
func (r Reg) IsPhys() bool { return r > NoReg && r < virtBase }

// IsVirt reports whether r is a virtual register.
func (r Reg) IsVirt() bool { return r >= virtBase }

// Num returns the register number within its class (physical or virtual).
func (r Reg) Num() int {
	switch {
	case r.IsPhys():
		return int(r - 1)
	case r.IsVirt():
		return int(r - virtBase)
	default:
		return -1
	}
}

// String renders "r3" for physical, "v7" for virtual, "-" for NoReg.
func (r Reg) String() string {
	var buf [12]byte
	return string(r.appendTo(buf[:0]))
}

// appendTo appends r's String form to b.
func (r Reg) appendTo(b []byte) []byte {
	switch {
	case r.IsPhys():
		return strconv.AppendInt(append(b, 'r'), int64(r.Num()), 10)
	case r.IsVirt():
		return strconv.AppendInt(append(b, 'v'), int64(r.Num()), 10)
	default:
		return append(b, '-')
	}
}

// Instr is a single instruction. Instructions are mutated in place by the
// register allocator and reordered (as pointers) by the schedulers.
type Instr struct {
	Op   Op
	Dst  Reg   // destination, or NoReg
	Srcs []Reg // register sources (not the address base)
	Imm  int64 // immediate for OpConst / *I forms

	// Memory operands (loads and stores).
	Sym  string // alias class: array/symbol name; "" = may alias anything
	Base Reg    // address base register, or NoReg
	Off  int64  // constant address offset

	Target string // branch/jump/call target label

	// Seq is the generation order of the instruction within its block,
	// used by the scheduler's final tie-break heuristic ("generated the
	// earliest", §4.1). The builder and parser assign it.
	Seq int

	// IsSpill marks instructions inserted by the register allocator.
	// Table 4 reports the fraction of executed instructions so marked.
	IsSpill bool

	// KnownLatency, if > 0, declares the latency of this instruction to be
	// statically known (§6: "disabling balanced scheduling when the latency
	// is known"). The balanced weighter then uses this fixed weight instead
	// of a load-level-parallelism weight.
	KnownLatency float64
}

// AppendUses appends every register the instruction reads, in operand
// order with the address base register of a memory operation last, to
// dst and returns the extended slice. Reusing one buffer across
// instructions (uses = in.AppendUses(uses[:0])) reads every operand of
// a block without allocating.
func (in *Instr) AppendUses(dst []Reg) []Reg {
	for _, s := range in.Srcs {
		if s != NoReg {
			dst = append(dst, s)
		}
	}
	if in.Op.IsMem() && in.Base != NoReg {
		dst = append(dst, in.Base)
	}
	return dst
}

// Def returns the register written by the instruction, or NoReg.
func (in *Instr) Def() Reg {
	if in.Op.HasDst() {
		return in.Dst
	}
	return NoReg
}

// Clone returns a deep copy of the instruction.
func (in *Instr) Clone() *Instr {
	c := *in
	c.Srcs = append([]Reg(nil), in.Srcs...)
	return &c
}

// String renders the instruction in the textual assembly syntax.
func (in *Instr) String() string {
	var buf [64]byte
	return string(in.appendTo(buf[:0]))
}

// appendTo appends in's String form to b.
func (in *Instr) appendTo(b []byte) []byte {
	switch {
	case in.Op == OpConst:
		b = append(in.Dst.appendTo(b), " = const "...)
		b = strconv.AppendInt(b, in.Imm, 10)
	case in.Op.IsLoad():
		b = append(in.Dst.appendTo(b), " = load "...)
		b = appendMemOperand(b, in)
	case in.Op.IsStore():
		b = appendMemOperand(append(b, "store "...), in)
		b = in.Srcs[0].appendTo(append(b, ", "...))
	case in.Op == OpBr:
		b = in.Srcs[0].appendTo(append(b, "br "...))
		b = append(append(b, ", "...), in.Target...)
	case in.Op == OpJmp:
		b = append(append(b, "jmp "...), in.Target...)
	case in.Op == OpCall:
		b = append(append(b, "call "...), in.Target...)
	case in.Op == OpRet:
		b = append(b, "ret"...)
	case in.Op == OpNop || in.Op == OpVNop:
		b = append(b, in.Op.String()...)
	case in.Op.HasDst():
		b = append(in.Dst.appendTo(b), " = "...)
		b = append(append(b, in.Op.String()...), ' ')
		for i, s := range in.Srcs {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = s.appendTo(b)
		}
		if in.Op.HasImm() {
			if len(in.Srcs) > 0 {
				b = append(b, ", "...)
			}
			b = strconv.AppendInt(b, in.Imm, 10)
		}
	default:
		b = append(b, in.Op.String()...)
	}
	if in.IsSpill {
		b = append(b, " !spill"...)
	}
	if in.KnownLatency > 0 {
		b = strconv.AppendFloat(append(b, " !lat="...), in.KnownLatency, 'g', -1, 64)
	}
	return b
}

// appendMemOperand appends "sym[base+off]", or "sym[off]" without a
// base, with "?" for the may-alias-anything symbol.
func appendMemOperand(b []byte, in *Instr) []byte {
	if in.Sym == "" {
		b = append(b, '?')
	} else {
		b = append(b, in.Sym...)
	}
	b = append(b, '[')
	if in.Base != NoReg {
		b = append(in.Base.appendTo(b), '+')
	}
	b = strconv.AppendInt(b, in.Off, 10)
	return append(b, ']')
}

// Block is a basic block: a label, a straight-line instruction sequence and
// a profiled execution frequency used to weight simulated runtimes (§4.3).
type Block struct {
	Label  string
	Instrs []*Instr
	Freq   float64

	// LiveOut lists registers whose values are needed after the block.
	// The register allocator keeps them in registers (or reloads them)
	// through the end of the block. The dependence builder does not read
	// it: output and anti edges already keep a register's last
	// definition after every earlier definition and read of it.
	LiveOut []Reg
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	c := &Block{
		Label:   b.Label,
		Freq:    b.Freq,
		Instrs:  make([]*Instr, len(b.Instrs)),
		LiveOut: append([]Reg(nil), b.LiveOut...),
	}
	for i, in := range b.Instrs {
		c.Instrs[i] = in.Clone()
	}
	return c
}

// NumLoads returns the number of load instructions in the block.
func (b *Block) NumLoads() int {
	n := 0
	for _, in := range b.Instrs {
		if in.Op.IsLoad() {
			n++
		}
	}
	return n
}

// MaxVirt returns the largest virtual register number used in the block,
// or -1 if none are used.
func (b *Block) MaxVirt() int {
	max := -1
	var regs []Reg
	for _, in := range b.Instrs {
		regs = append(in.AppendUses(regs[:0]), in.Def())
		for _, r := range regs {
			if r.IsVirt() && r.Num() > max {
				max = r.Num()
			}
		}
	}
	for _, r := range b.LiveOut {
		if r.IsVirt() && r.Num() > max {
			max = r.Num()
		}
	}
	return max
}

// String renders the block in the textual assembly syntax.
func (b *Block) String() string {
	// 32 bytes a line holds most instructions, so one buffer usually
	// holds the block.
	buf := make([]byte, 0, 32*(len(b.Instrs)+3))
	buf = append(append(buf, "block "...), b.Label...)
	buf = strconv.AppendFloat(append(buf, " freq="...), b.Freq, 'g', -1, 64)
	buf = append(buf, '\n')
	if len(b.LiveOut) > 0 {
		buf = append(buf, "  liveout"...)
		for i, r := range b.LiveOut {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = r.appendTo(append(buf, ' '))
		}
		buf = append(buf, '\n')
	}
	for _, in := range b.Instrs {
		buf = append(in.appendTo(append(buf, "  "...)), '\n')
	}
	return string(append(buf, "end\n"...))
}

// Func is a named collection of basic blocks.
type Func struct {
	Name   string
	Blocks []*Block
}

// Clone returns a deep copy of the function.
func (f *Func) Clone() *Func {
	c := &Func{Name: f.Name, Blocks: make([]*Block, len(f.Blocks))}
	for i, b := range f.Blocks {
		c.Blocks[i] = b.Clone()
	}
	return c
}

// String renders the function in the textual assembly syntax.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s\n", f.Name)
	for _, b := range f.Blocks {
		sb.WriteString(b.String())
	}
	return sb.String()
}

// Program is a named collection of functions; the unit the pipeline
// compiles and the simulator executes.
type Program struct {
	Name  string
	Funcs []*Func
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	c := &Program{Name: p.Name, Funcs: make([]*Func, len(p.Funcs))}
	for i, f := range p.Funcs {
		c.Funcs[i] = f.Clone()
	}
	return c
}

// Blocks returns every block of every function, in order.
func (p *Program) Blocks() []*Block {
	var out []*Block
	for _, f := range p.Funcs {
		out = append(out, f.Blocks...)
	}
	return out
}

// String renders the program in the textual assembly syntax.
func (p *Program) String() string {
	var sb strings.Builder
	if p.Name != "" {
		fmt.Fprintf(&sb, "# program %s\n", p.Name)
	}
	for i, f := range p.Funcs {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(f.String())
	}
	return sb.String()
}
