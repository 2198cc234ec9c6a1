// Package sim is the instruction-level simulator of §4.3: it executes a
// scheduled basic block on a modelled processor and memory system, drawing
// a latency sample for every load, and reports instruction and interlock
// cycles.
//
// The machine is in-order and single-issue. Non-load instructions execute
// in one cycle (configurable for the §6 floating-point extension). Loads
// are non-blocking: the processor keeps issuing until an instruction needs
// a result that has not returned (a hardware interlock) or the processor
// model itself blocks (MAX-k: too many outstanding loads; LEN-k: a load
// outstanding too long).
package sim

import (
	"fmt"
	"math/rand"

	"bsched/internal/ir"
	"bsched/internal/machine"
	"bsched/internal/memlat"
)

// Options tunes simulation behaviour.
type Options struct {
	// OpLatency returns the latency in cycles of a non-load instruction
	// (its result is usable by an instruction issued that many cycles
	// later). nil means 1 for everything, the paper's base model. The §6
	// extension experiments give floating-point ops longer latencies.
	OpLatency func(op ir.Op) int

	// Trace, if non-nil, receives one entry per issued instruction —
	// cycle-accurate visibility for debugging and the CLI's -trace flag.
	Trace func(TraceEntry)
}

// TraceEntry describes one instruction issue.
type TraceEntry struct {
	// Index is the instruction's position in the executed sequence.
	Index int
	// Cycle is the issue cycle.
	Cycle int
	// Latency is the sampled memory latency for loads, the operation
	// latency otherwise.
	Latency int
	// Stall is how many cycles issue was delayed beyond the earliest
	// slot the issue width allowed.
	Stall int
	// Instr is the issued instruction.
	Instr *ir.Instr
}

// String renders "c12 +3 v4 = load a[v0+0] (lat 7)".
func (e TraceEntry) String() string {
	stall := ""
	if e.Stall > 0 {
		stall = fmt.Sprintf(" +%d", e.Stall)
	}
	return fmt.Sprintf("c%d%s: %s (lat %d)", e.Cycle, stall, e.Instr, e.Latency)
}

func (o Options) opLatency(op ir.Op) int {
	if o.OpLatency == nil {
		return 1
	}
	if l := o.OpLatency(op); l > 0 {
		return l
	}
	return 1
}

// BlockStats is the outcome of one simulated execution of a block.
type BlockStats struct {
	// Cycles is the block runtime: issue cycle of the last instruction
	// plus one.
	Cycles int
	// Instrs is the number of instructions issued.
	Instrs int
	// Interlocks is the number of cycles in which no instruction could
	// issue, whether from operand interlocks or processor-model blocking.
	// On a single-issue machine this equals Cycles − Instrs.
	Interlocks int
	// SpillInstrs counts issued instructions marked as register-allocator
	// spill code.
	SpillInstrs int
	// Loads counts issued load instructions.
	Loads int
}

// RunBlock simulates one execution of the instruction sequence on the
// given processor and memory system, drawing load latencies from rng.
func RunBlock(instrs []*ir.Instr, proc machine.Config, mem memlat.Model, rng *rand.Rand, opts Options) BlockStats {
	var st BlockStats
	if len(instrs) == 0 {
		return st
	}

	readyAt := make(map[ir.Reg]int) // cycle at which a register's value is usable
	var loads []outstandingT        // outstanding loads, completion not yet passed
	uses := make([]ir.Reg, 0, 4)    // the current instruction's operands

	width := proc.IssueWidth()
	cycle := 0       // current issue cycle
	used := 0        // instructions issued in the current cycle
	issueCycles := 0 // distinct cycles in which something issued
	issued := false  // whether any instruction has issued at all
	for _, in := range instrs {
		if in.Op == ir.OpVNop {
			// Virtual no-ops are a scheduler artifact; the hardware
			// interlock model strips them (§4.1).
			continue
		}
		t := cycle
		if used >= width {
			t++
		}
		baseline := t
		uses = in.AppendUses(uses[:0])
		for _, r := range uses {
			if ra, ok := readyAt[r]; ok && ra > t {
				t = ra
			}
		}

		// Processor-model constraints.
		switch proc.Kind {
		case machine.MaxOutstanding:
			if in.Op.IsLoad() {
				for countOutstanding(loads, t) >= proc.Limit {
					t = earliestCompletion(loads, t)
				}
			}
		case machine.MaxAge:
			// The processor blocks from (issue+Limit) until completion of
			// any load outstanding longer than Limit cycles; no
			// instruction can issue inside such a window.
			for changed := true; changed; {
				changed = false
				for _, l := range loads {
					if t > l.issue+proc.Limit && t < l.complete {
						t = l.complete
						changed = true
					}
				}
			}
		}

		// Issue at cycle t.
		if t != cycle || !issued {
			cycle = t
			used = 0
			issueCycles++
			issued = true
		}
		used++
		st.Instrs++
		if in.IsSpill {
			st.SpillInstrs++
		}
		lat := 0
		switch {
		case in.Op.IsLoad():
			st.Loads++
			lat = clampLatency(mem.Sample(rng))
			if in.KnownLatency > 0 {
				// Clamp in float space: converting an out-of-range float64
				// to int is implementation-defined.
				kl := in.KnownLatency
				if kl > maxSimLatency {
					kl = maxSimLatency
				}
				lat = int(kl)
			}
			complete := t + lat
			readyAt[in.Dst] = complete
			loads = append(loads, outstandingT{issue: t, complete: complete})
			loads = pruneCompleted(loads, t)
		default:
			lat = opts.opLatency(in.Op)
			if d := in.Def(); d != ir.NoReg {
				readyAt[d] = t + lat
			}
		}
		if opts.Trace != nil {
			opts.Trace(TraceEntry{
				Index:   st.Instrs - 1,
				Cycle:   t,
				Latency: lat,
				Stall:   t - baseline,
				Instr:   in,
			})
		}
	}
	if issued {
		st.Cycles = cycle + 1
	}
	st.Interlocks = st.Cycles - issueCycles
	return st
}

// maxSimLatency caps a single sampled latency so that cycle arithmetic
// stays far from int overflow even when a memory model misbehaves (the
// memlat fault-injection profiles do so on purpose) or a !lat attribute
// carries an absurd value.
const maxSimLatency = 1 << 40

// clampLatency forces an out-of-contract sample back into [0,
// maxSimLatency]; models are supposed to return non-negative latencies,
// but the simulator must not trust them.
func clampLatency(lat int) int {
	if lat < 0 {
		return 0
	}
	if lat > maxSimLatency {
		return maxSimLatency
	}
	return lat
}

// outstandingT records an in-flight load.
type outstandingT struct {
	issue, complete int
}

func countOutstanding(loads []outstandingT, t int) int {
	n := 0
	for _, l := range loads {
		if l.complete > t {
			n++
		}
	}
	return n
}

func earliestCompletion(loads []outstandingT, t int) int {
	best := -1
	for _, l := range loads {
		if l.complete > t && (best < 0 || l.complete < best) {
			best = l.complete
		}
	}
	if best < 0 {
		panic("sim: no outstanding load to wait for")
	}
	return best
}

func pruneCompleted(loads []outstandingT, t int) []outstandingT {
	out := loads[:0]
	for _, l := range loads {
		if l.complete > t {
			out = append(out, l)
		}
	}
	return out
}

// Trials runs the block `trials` times with fresh latency samples and
// returns the runtimes in cycles as float64s, ready for bootstrapping.
// The paper uses 30 trials per block (§4.3).
func Trials(instrs []*ir.Instr, proc machine.Config, mem memlat.Model, rng *rand.Rand, opts Options, trials int) []float64 {
	out := make([]float64, trials)
	for i := range out {
		out[i] = float64(RunBlock(instrs, proc, mem, rng, opts).Cycles)
	}
	return out
}

// Verify checks the instruction sequence for conditions that would make
// a simulation meaningless: invalid opcodes, and uses of virtual
// registers that are never defined (physical registers count as live-in).
// It is a debugging aid for scheduler and allocator changes.
func Verify(instrs []*ir.Instr) error {
	defined := make(map[ir.Reg]bool)
	var uses []ir.Reg
	for idx, in := range instrs {
		if !in.Op.Valid() {
			return fmt.Errorf("sim: instr %d has invalid opcode", idx)
		}
		uses = in.AppendUses(uses[:0])
		for _, u := range uses {
			if u.IsVirt() && !defined[u] {
				return fmt.Errorf("sim: instr %d (%s) uses undefined register %v", idx, in, u)
			}
		}
		if d := in.Def(); d != ir.NoReg {
			defined[d] = true
		}
	}
	return nil
}
