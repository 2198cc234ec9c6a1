// Package unroll implements basic-block loop unrolling for the IR.
//
// The paper's evaluation depends on unrolling: "Loop unrolling is an
// optimization that increases instruction level parallelism. … unrolling
// was performed manually" (§4.1). The workload kernels are built
// pre-unrolled; this package automates the transformation for arbitrary
// self-branching loop blocks so the unroll-factor experiment (A11) can
// sweep it and users can unroll their own textual-IR loops.
//
// A block is unrollable when it has the canonical counted-loop shape the
// kernels (and the bsched textual examples) use:
//
//	body …                     (uses induction register i)
//	ni = addi i, STEP          (the only redefinition-style update)
//	cond = slt ni, n
//	br cond, self
//
// Unrolling by factor k replicates the body k times; copy c rewrites
// every memory offset relative to the induction register by adding
// c·STEP, renames the copy's virtual registers, and keeps a single
// updated induction increment of k·STEP at the end.
package unroll

import (
	"fmt"

	"bsched/internal/ir"
)

// Info describes a recognized counted loop.
type Info struct {
	// Induction is the induction register the body indexes with.
	Induction ir.Reg
	// Step is the per-iteration increment.
	Step int64
	// BodyLen is the number of instructions before the update/branch tail.
	BodyLen int
	// Update, Compare and Branch are the tail instruction indices.
	Update, Compare, Branch int
}

// Recognize reports whether the block has the canonical counted-loop
// shape, returning its description.
func Recognize(b *ir.Block) (Info, bool) {
	n := len(b.Instrs)
	if n < 3 {
		return Info{}, false
	}
	br := b.Instrs[n-1]
	cmp := b.Instrs[n-2]
	upd := b.Instrs[n-3]
	if br.Op != ir.OpBr || br.Target != b.Label {
		return Info{}, false
	}
	if cmp.Op != ir.OpSlt || len(cmp.Srcs) != 2 || br.Srcs[0] != cmp.Dst {
		return Info{}, false
	}
	if upd.Op != ir.OpAddI || cmp.Srcs[0] != upd.Dst {
		return Info{}, false
	}
	info := Info{
		Induction: upd.Srcs[0],
		Step:      upd.Imm,
		BodyLen:   n - 3,
		Update:    n - 3,
		Compare:   n - 2,
		Branch:    n - 1,
	}
	// The induction register may be defined at most once in the body (its
	// initialization — blocks are self-contained), and that definition
	// must precede every body use.
	defs, firstUse := 0, -1
	var uses []ir.Reg
	for idx, in := range b.Instrs[:info.BodyLen] {
		uses = in.AppendUses(uses[:0])
		for _, u := range uses {
			if u == info.Induction && firstUse < 0 {
				firstUse = idx
			}
		}
		if in.Def() == info.Induction {
			defs++
			if defs > 1 || firstUse >= 0 {
				return Info{}, false
			}
		}
	}
	return info, true
}

// Unroll returns a new block whose body is replicated `factor` times
// (factor >= 1). The original block is untouched. It returns an error if
// the block does not have the canonical loop shape.
func Unroll(b *ir.Block, factor int) (*ir.Block, error) {
	if factor < 1 {
		return nil, fmt.Errorf("unroll: factor %d", factor)
	}
	info, ok := Recognize(b)
	if !ok {
		return nil, fmt.Errorf("unroll: block %s is not a canonical counted loop", b.Label)
	}
	out := &ir.Block{Label: b.Label, Freq: b.Freq}
	// Virtual registers of each copy are renamed above the block's
	// current maximum to keep copies independent.
	base := b.MaxVirt() + 1
	for c := 0; c < factor; c++ {
		shift := int64(c) * info.Step
		remap := func(r ir.Reg) ir.Reg {
			if c == 0 || !r.IsVirt() || r == info.Induction {
				return r
			}
			return ir.Virt(r.Num() + base*c)
		}
		for _, in := range b.Instrs[:info.BodyLen] {
			// The induction initialization belongs to the first copy
			// only; later copies keep referring to it.
			if c > 0 && in.Def() == info.Induction {
				continue
			}
			cp := in.Clone()
			for k, s := range cp.Srcs {
				cp.Srcs[k] = remap(s)
			}
			if cp.Base != ir.NoReg {
				cp.Base = remap(cp.Base)
			}
			if cp.Dst != ir.NoReg {
				cp.Dst = remap(cp.Dst)
			}
			// Induction-relative addresses advance by the iteration
			// distance; addresses off copy-local registers (e.g. gather
			// data loads) are left alone — their base was renamed.
			if cp.Op.IsMem() && cp.Base == info.Induction {
				cp.Off += shift
			}
			out.Instrs = append(out.Instrs, cp)
		}
	}
	// Single combined tail: ni = addi i, factor·STEP; slt; br.
	upd := b.Instrs[info.Update].Clone()
	upd.Imm = info.Step * int64(factor)
	cmp := b.Instrs[info.Compare].Clone()
	bri := b.Instrs[info.Branch].Clone()
	out.Instrs = append(out.Instrs, upd, cmp, bri)

	// Live-out values: the update result plus the final copy's renaming
	// of any body live-outs.
	lastShift := factor - 1
	for _, r := range b.LiveOut {
		nr := r
		if r.IsVirt() && r != info.Induction && r != upd.Dst && lastShift > 0 {
			if definedInBody(b, info, r) {
				nr = ir.Virt(r.Num() + base*lastShift)
			}
		}
		out.LiveOut = append(out.LiveOut, nr)
	}
	ir.Renumber(out)
	if err := ir.ValidateBlock(out); err != nil {
		return nil, fmt.Errorf("unroll: produced invalid block: %w", err)
	}
	return out, nil
}

func definedInBody(b *ir.Block, info Info, r ir.Reg) bool {
	for _, in := range b.Instrs[:info.BodyLen] {
		if in.Def() == r {
			return true
		}
	}
	return false
}

// MustUnroll is Unroll that panics on error.
func MustUnroll(b *ir.Block, factor int) *ir.Block {
	out, err := Unroll(b, factor)
	if err != nil {
		panic(err)
	}
	return out
}
