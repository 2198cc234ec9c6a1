package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"bsched/internal/ir"
)

// Rich generates a pseudo-random block of n instructions (n >= 1) that
// reaches every operand form the compiler's stages read, beyond
// Random's loop mix: calls, sources left NoReg, instructions with more
// than three sources, physical registers read as live-ins, redefined
// virtual registers (anti and output dependences), unknown-symbol and
// base-less memory references, !spill and !lat= marks, live-outs, and
// virtual numbers spread far apart. Every virtual register is defined
// before it is read, so the register allocator accepts the block
// whenever the register file is large enough. Some blocks end without
// a terminator. The same seed always produces the same block.
func Rich(rng *rand.Rand, n int) *ir.Block {
	if n < 1 {
		panic("workload: Rich with n < 1")
	}
	b := &ir.Block{Label: fmt.Sprintf("rich%d", rng.Int63n(1<<30)), Freq: 1}
	next, stride := rng.Intn(4)<<18, 1
	if rng.Intn(2) == 0 {
		stride += rng.Intn(1 << 12)
	}
	var phys, defined []ir.Reg
	if rng.Intn(4) == 0 {
		phys = append(phys, ir.Phys(rng.Intn(8)))
	}
	syms := []string{"a", "b", "c", ""}
	src := func() ir.Reg {
		switch {
		case len(phys) > 0 && rng.Intn(8) == 0:
			return phys[rng.Intn(len(phys))]
		case len(defined) == 0 || rng.Intn(16) == 0:
			return ir.NoReg
		}
		return defined[rng.Intn(len(defined))]
	}
	dst := func() ir.Reg {
		if len(defined) > 0 && rng.Intn(6) == 0 {
			return defined[rng.Intn(len(defined))]
		}
		r := ir.Virt(next)
		next += stride
		defined = append(defined, r)
		return r
	}
	srcs := func(k int) []ir.Reg {
		out := make([]ir.Reg, k)
		for i := range out {
			out[i] = src()
		}
		return out
	}
	body := n
	if rng.Intn(4) != 0 {
		body-- // room for a terminator
	}
	for len(b.Instrs) < body {
		var in *ir.Instr
		switch r := rng.Intn(20); {
		case r < 3:
			in = &ir.Instr{Op: ir.OpConst, Imm: int64(rng.Intn(100))}
		case r < 8:
			in = &ir.Instr{Op: ir.OpLoad, Sym: syms[rng.Intn(len(syms))], Base: src(), Off: int64(rng.Intn(8)) * Word}
		case r < 10:
			in = &ir.Instr{Op: ir.OpStore, Srcs: srcs(1), Sym: syms[rng.Intn(len(syms))], Base: src(), Off: int64(rng.Intn(8)) * Word}
		case r < 14:
			in = &ir.Instr{Op: []ir.Op{ir.OpAdd, ir.OpMul, ir.OpFAdd, ir.OpFMul}[rng.Intn(4)], Srcs: srcs(2)}
		case r < 15:
			in = &ir.Instr{Op: ir.OpAddI, Srcs: srcs(1), Imm: int64(rng.Intn(16))}
		case r < 16:
			in = &ir.Instr{Op: ir.OpFMA, Srcs: srcs(3)}
		case r < 17:
			in = &ir.Instr{Op: ir.OpAdd, Srcs: srcs(4 + rng.Intn(3))}
		case r < 18:
			in = &ir.Instr{Op: ir.OpMove, Srcs: srcs(1)}
		case r < 19:
			in = &ir.Instr{Op: ir.OpCall, Target: "f"}
		default:
			in = &ir.Instr{Op: ir.OpNop}
		}
		if in.Op.HasDst() {
			in.Dst = dst()
		}
		in.IsSpill = rng.Intn(16) == 0
		if rng.Intn(10) == 0 {
			in.KnownLatency = []float64{1, 2.5, 6}[rng.Intn(3)]
		}
		in.Seq = len(b.Instrs)
		b.Instrs = append(b.Instrs, in)
	}
	if len(b.Instrs) < n {
		var term *ir.Instr
		switch rng.Intn(3) {
		case 0:
			term = &ir.Instr{Op: ir.OpRet}
		case 1:
			term = &ir.Instr{Op: ir.OpJmp, Target: b.Label}
		default:
			term = &ir.Instr{Op: ir.OpBr, Srcs: srcs(1), Target: b.Label}
		}
		term.Seq = len(b.Instrs)
		b.Instrs = append(b.Instrs, term)
	}
	for k := rng.Intn(4); k > 0 && len(defined) > 0; k-- {
		b.LiveOut = append(b.LiveOut, defined[rng.Intn(len(defined))])
	}
	if len(phys) > 0 && rng.Intn(2) == 0 {
		b.LiveOut = append(b.LiveOut, phys[0])
	}
	return b
}

// Corpus returns named blocks from every generator of the package: each
// block of the paper suite, Livermore and IntMix programs, every kernel
// at unroll 1, 2, 4 and 8, and rich Rich blocks from a fixed seed, the
// first 64 at every size from 1 instruction and the rest at 1 to 512.
// Reference tests run old and new implementations over it.
func Corpus(rich int) (names []string, blocks []*ir.Block) {
	progs := All()
	progs["Livermore"] = Livermore()
	progs["IntMix"] = IntMix()
	pnames := make([]string, 0, len(progs))
	for name := range progs {
		pnames = append(pnames, name)
	}
	sort.Strings(pnames)
	for _, pn := range pnames {
		for _, b := range progs[pn].Blocks() {
			names = append(names, pn+"/"+b.Label)
			blocks = append(blocks, b)
		}
	}
	kernels := map[string]func(string, float64, int) *ir.Block{}
	for _, set := range []map[string]func(string, float64, int) *ir.Block{Kernels(), LivermoreKernels(), IntKernels()} {
		for name, k := range set {
			kernels[name] = k
		}
	}
	knames := make([]string, 0, len(kernels))
	for name := range kernels {
		knames = append(knames, name)
	}
	sort.Strings(knames)
	for _, kn := range knames {
		for _, p := range []int{1, 2, 4, 8} {
			names = append(names, fmt.Sprintf("kernel/%s/%d", kn, p))
			blocks = append(blocks, kernels[kn](kn, 1, p))
		}
	}
	rng := rand.New(rand.NewSource(1993))
	for k := 0; k < rich; k++ {
		n := 1 + rng.Intn(512)
		if k < 64 {
			n = 1 + k
		}
		names = append(names, fmt.Sprintf("rich/%d/n%d", k, n))
		blocks = append(blocks, Rich(rng, n))
	}
	return names, blocks
}
