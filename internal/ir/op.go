// Package ir defines the intermediate representation the schedulers operate
// on: a small MIPS-like RISC instruction set organized into basic blocks
// with profiled execution frequencies.
//
// The representation deliberately mirrors the level at which the paper's
// modified GCC works after RTL lowering (§4.1): simple three-address
// instructions, explicit load/store with a symbolic alias class, and one
// uniform register file with virtual registers before allocation and
// physical registers after.
package ir

import "fmt"

// Op identifies an instruction opcode.
type Op uint8

// Opcodes. Arithmetic ops take two register sources; the *I forms take one
// register source and an immediate. Load/Store address memory through an
// alias symbol, an optional base register and a constant offset.
const (
	OpInvalid Op = iota

	OpConst // dst = imm
	OpMove  // dst = src

	OpAdd // dst = s0 + s1
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpSlt // set-less-than

	OpAddI // dst = s0 + imm
	OpSubI
	OpMulI
	OpAndI
	OpOrI
	OpShlI
	OpShrI
	OpSltI

	OpFAdd // floating point; single-cycle in the base model, multi-cycle
	OpFSub // under the §6 extension experiments
	OpFMul
	OpFDiv
	OpFNeg
	OpFMA // dst = s0*s1 + s2 (three sources)

	OpLoad  // dst = mem[Sym + base + off]
	OpStore // mem[Sym + base + off] = s0

	OpBr   // conditional branch on s0 to Target
	OpJmp  // unconditional jump to Target
	OpCall // call Target (clobbers nothing in this model; block terminator)
	OpRet  // return

	OpNop
	OpVNop // virtual no-op inserted by the scheduler, stripped before emit

	numOps
)

type opInfo struct {
	name    string
	hasDst  bool
	nsrc    int // register sources, excluding the address base
	hasImm  bool
	isMem   bool
	isLoad  bool
	isStore bool
	isFP    bool
	isTerm  bool // block terminator (branch/jump/ret)
}

var opTable = [numOps]opInfo{
	OpInvalid: {name: "invalid"},

	OpConst: {name: "const", hasDst: true, hasImm: true},
	OpMove:  {name: "move", hasDst: true, nsrc: 1},

	OpAdd: {name: "add", hasDst: true, nsrc: 2},
	OpSub: {name: "sub", hasDst: true, nsrc: 2},
	OpMul: {name: "mul", hasDst: true, nsrc: 2},
	OpDiv: {name: "div", hasDst: true, nsrc: 2},
	OpRem: {name: "rem", hasDst: true, nsrc: 2},
	OpAnd: {name: "and", hasDst: true, nsrc: 2},
	OpOr:  {name: "or", hasDst: true, nsrc: 2},
	OpXor: {name: "xor", hasDst: true, nsrc: 2},
	OpShl: {name: "shl", hasDst: true, nsrc: 2},
	OpShr: {name: "shr", hasDst: true, nsrc: 2},
	OpSlt: {name: "slt", hasDst: true, nsrc: 2},

	OpAddI: {name: "addi", hasDst: true, nsrc: 1, hasImm: true},
	OpSubI: {name: "subi", hasDst: true, nsrc: 1, hasImm: true},
	OpMulI: {name: "muli", hasDst: true, nsrc: 1, hasImm: true},
	OpAndI: {name: "andi", hasDst: true, nsrc: 1, hasImm: true},
	OpOrI:  {name: "ori", hasDst: true, nsrc: 1, hasImm: true},
	OpShlI: {name: "shli", hasDst: true, nsrc: 1, hasImm: true},
	OpShrI: {name: "shri", hasDst: true, nsrc: 1, hasImm: true},
	OpSltI: {name: "slti", hasDst: true, nsrc: 1, hasImm: true},

	OpFAdd: {name: "fadd", hasDst: true, nsrc: 2, isFP: true},
	OpFSub: {name: "fsub", hasDst: true, nsrc: 2, isFP: true},
	OpFMul: {name: "fmul", hasDst: true, nsrc: 2, isFP: true},
	OpFDiv: {name: "fdiv", hasDst: true, nsrc: 2, isFP: true},
	OpFNeg: {name: "fneg", hasDst: true, nsrc: 1, isFP: true},
	OpFMA:  {name: "fma", hasDst: true, nsrc: 3, isFP: true},

	OpLoad:  {name: "load", hasDst: true, isMem: true, isLoad: true},
	OpStore: {name: "store", nsrc: 1, isMem: true, isStore: true},

	OpBr:   {name: "br", nsrc: 1, isTerm: true},
	OpJmp:  {name: "jmp", isTerm: true},
	OpCall: {name: "call"},
	OpRet:  {name: "ret", isTerm: true},

	OpNop:  {name: "nop"},
	OpVNop: {name: "vnop"},
}

// opsByInitial lists the opcodes by their mnemonic's first letter, and
// opKeys holds each mnemonic as an opKey, so OpByName compares a few
// integers and hashes nothing.
var (
	opsByInitial [26][]Op
	opKeys       [numOps]uint64
)

func init() {
	for op := Op(1); op < numOps; op++ {
		name := opTable[op].name
		opKeys[op] = opKey(name)
		opsByInitial[name[0]-'a'] = append(opsByInitial[name[0]-'a'], op)
	}
}

// opKey packs a name of at most 7 bytes and its length into one
// integer; distinct names get distinct keys.
func opKey(name string) uint64 {
	k := uint64(len(name))
	for i := 0; i < len(name); i++ {
		k = k<<8 | uint64(name[i])
	}
	return k
}

// OpByName returns the opcode with the given assembly mnemonic, or
// OpInvalid if there is none.
func OpByName(name string) Op {
	if name == "" || len(name) > 7 || name[0] < 'a' || name[0] > 'z' {
		return OpInvalid
	}
	k := opKey(name)
	for _, op := range opsByInitial[name[0]-'a'] {
		if opKeys[op] == k {
			return op
		}
	}
	return OpInvalid
}

// String returns the assembly mnemonic.
func (op Op) String() string {
	if op >= numOps {
		return fmt.Sprintf("op(%d)", uint8(op))
	}
	return opTable[op].name
}

// HasDst reports whether the opcode defines a destination register.
func (op Op) HasDst() bool { return opTable[op].hasDst }

// NumSrcs returns the number of register sources (excluding the memory
// address base register of loads and stores).
func (op Op) NumSrcs() int { return opTable[op].nsrc }

// HasImm reports whether the opcode carries an immediate operand.
func (op Op) HasImm() bool { return opTable[op].hasImm }

// IsMem reports whether the opcode references memory.
func (op Op) IsMem() bool { return opTable[op].isMem }

// IsLoad reports whether the opcode is a load.
func (op Op) IsLoad() bool { return opTable[op].isLoad }

// IsStore reports whether the opcode is a store.
func (op Op) IsStore() bool { return opTable[op].isStore }

// IsFP reports whether the opcode is a floating-point operation.
func (op Op) IsFP() bool { return opTable[op].isFP }

// IsTerminator reports whether the opcode ends a basic block.
func (op Op) IsTerminator() bool { return opTable[op].isTerm }

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op > OpInvalid && op < numOps }
