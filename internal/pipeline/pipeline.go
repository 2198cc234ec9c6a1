// Package pipeline holds the result types of the compiler flow the paper
// embeds its schedulers in (§4.1): instruction scheduling runs both
// before and after register allocation, with the second pass integrating
// spill code into the final schedule under the false dependences
// allocation introduced.
//
//	source block (virtual registers)
//	  └─ build code DAG (alias oracle)
//	  └─ scheduling pass 1 (traditional or balanced weights)
//	  └─ local register allocation + spill code (FIFO spill pool)
//	  └─ build code DAG (now with physical-register anti/output deps)
//	  └─ scheduling pass 2
//	  └─ final schedule
//
// bsched/internal/compile drives that flow; its Result.Pipeline converts
// to the types here, which the experiments and the benchmark read.
package pipeline

import (
	"bsched/internal/ir"
	"bsched/internal/regalloc"
	"bsched/internal/sched"
)

// AllocatorKind selects a register allocation backend.
type AllocatorKind int

const (
	// AllocLocal is the local Belady allocator (regalloc.Run), the
	// default.
	AllocLocal AllocatorKind = iota
	// AllocColoring is the Chaitin/Briggs graph-coloring allocator
	// (regalloc.RunColoring).
	AllocColoring
)

// String names the backend ("local", "coloring").
func (k AllocatorKind) String() string {
	if k == AllocColoring {
		return "coloring"
	}
	return "local"
}

// BlockResult is the compilation outcome for one block.
type BlockResult struct {
	// Block is the final scheduled block. Its instructions are clones;
	// the input block is never mutated.
	Block *ir.Block
	// Spill reports register-allocator activity.
	Spill regalloc.Stats
	// Pass1 and Pass2 are the scheduling results (Pass2 nil when
	// SkipRegalloc or SkipPass2 is set).
	Pass1, Pass2 *sched.Result
}

// SpillInstrs counts spill instructions in the final schedule.
func (r *BlockResult) SpillInstrs() int {
	n := 0
	for _, in := range r.Block.Instrs {
		if in.IsSpill {
			n++
		}
	}
	return n
}

// ProgramResult is the compilation outcome for a whole program.
type ProgramResult struct {
	Program *ir.Program // final scheduled program
	Blocks  []*BlockResult
}

// WeightedInstrs returns the profile-weighted number of instructions
// executed (Σ freq·len(block)) — the paper's "instructions executed".
func (r *ProgramResult) WeightedInstrs() float64 {
	total := 0.0
	for _, br := range r.Blocks {
		total += br.Block.Freq * float64(len(br.Block.Instrs))
	}
	return total
}

// WeightedSpills returns the profile-weighted number of spill instructions
// executed, the numerator of Table 4's percentages.
func (r *ProgramResult) WeightedSpills() float64 {
	total := 0.0
	for _, br := range r.Blocks {
		total += br.Block.Freq * float64(br.SpillInstrs())
	}
	return total
}

// SpillPct returns the percentage of executed instructions that is spill
// code (Table 4).
func (r *ProgramResult) SpillPct() float64 {
	ins := r.WeightedInstrs()
	if ins == 0 {
		return 0
	}
	return r.WeightedSpills() / ins * 100
}
