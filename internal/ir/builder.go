package ir

import "fmt"

// Builder incrementally constructs a basic block, assigning fresh virtual
// registers and generation-order sequence numbers.
type Builder struct {
	block    *Block
	nextVirt int
}

// NewBuilder starts a block with the given label and profile frequency.
func NewBuilder(label string, freq float64) *Builder {
	return &Builder{block: &Block{Label: label, Freq: freq}}
}

// fresh allocates a new virtual register.
func (b *Builder) fresh() Reg {
	r := Virt(b.nextVirt)
	b.nextVirt++
	return r
}

func (b *Builder) emit(in *Instr) {
	in.Seq = len(b.block.Instrs)
	b.block.Instrs = append(b.block.Instrs, in)
}

// Const emits dst = const imm and returns dst.
func (b *Builder) Const(imm int64) Reg {
	dst := b.fresh()
	b.emit(&Instr{Op: OpConst, Dst: dst, Imm: imm})
	return dst
}

// Op2 emits dst = op s0, s1 and returns dst.
func (b *Builder) Op2(op Op, s0, s1 Reg) Reg {
	if op.NumSrcs() != 2 || !op.HasDst() {
		panic(fmt.Sprintf("ir: Op2 with %v", op))
	}
	dst := b.fresh()
	b.emit(&Instr{Op: op, Dst: dst, Srcs: []Reg{s0, s1}})
	return dst
}

// Op3 emits dst = op s0, s1, s2 (e.g. fma) and returns dst.
func (b *Builder) Op3(op Op, s0, s1, s2 Reg) Reg {
	if op.NumSrcs() != 3 || !op.HasDst() {
		panic(fmt.Sprintf("ir: Op3 with %v", op))
	}
	dst := b.fresh()
	b.emit(&Instr{Op: op, Dst: dst, Srcs: []Reg{s0, s1, s2}})
	return dst
}

// OpImm emits dst = op src, imm and returns dst.
func (b *Builder) OpImm(op Op, src Reg, imm int64) Reg {
	if op.NumSrcs() != 1 || !op.HasImm() || !op.HasDst() {
		panic(fmt.Sprintf("ir: OpImm with %v", op))
	}
	dst := b.fresh()
	b.emit(&Instr{Op: op, Dst: dst, Srcs: []Reg{src}, Imm: imm})
	return dst
}

// Load emits dst = load sym[base+off] and returns dst. base may be NoReg.
func (b *Builder) Load(sym string, base Reg, off int64) Reg {
	dst := b.fresh()
	b.emit(&Instr{Op: OpLoad, Dst: dst, Sym: sym, Base: base, Off: off})
	return dst
}

// Store emits store sym[base+off], val.
func (b *Builder) Store(sym string, base Reg, off int64, val Reg) {
	b.emit(&Instr{Op: OpStore, Srcs: []Reg{val}, Sym: sym, Base: base, Off: off})
}

// Br emits a conditional branch on cond to target.
func (b *Builder) Br(cond Reg, target string) {
	b.emit(&Instr{Op: OpBr, Srcs: []Reg{cond}, Target: target})
}

// Ret emits a return.
func (b *Builder) Ret() { b.emit(&Instr{Op: OpRet}) }

// MarkLiveOut declares registers live past the end of the block.
func (b *Builder) MarkLiveOut(regs ...Reg) {
	b.block.LiveOut = append(b.block.LiveOut, regs...)
}

// Block finalizes and returns the built block.
func (b *Builder) Block() *Block { return b.block }
