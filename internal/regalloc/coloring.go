package regalloc

import (
	"fmt"
	"sort"

	"bsched/internal/ir"
)

// RunColoring is an alternative allocator: Chaitin-style graph coloring
// with Briggs' optimistic spilling over block-local live ranges. GCC
// 2.2.2's global allocator was a priority/coloring hybrid, so this
// backend brackets the allocator-sensitivity of the paper's spill results
// (ablation A13) from the other side of the local Belady allocator in
// Run:
//
//   - live ranges: first definition to last use (block end if live-out);
//   - interference: overlapping ranges; simplify with degree < K, spill
//     candidates chosen by Chaitin's degree/uses ratio, pushed
//     optimistically;
//   - actual spills rewrite with spill-everywhere code through the same
//     FIFO spill-register pool the paper describes.
//
// The block is rewritten in place, like Run.
func RunColoring(b *ir.Block, cfg Config) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	if err := checkDefBeforeUse(b); err != nil {
		return Stats{}, err
	}
	reserved, err := reservedPhys(b, cfg)
	if err != nil {
		return Stats{}, err
	}

	ranges := liveRanges(b)
	order := make([]ir.Reg, 0, len(ranges))
	for vr := range ranges {
		order = append(order, vr)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	// Interference graph over virtual registers.
	adj := make(map[ir.Reg]map[ir.Reg]bool, len(order))
	for _, v := range order {
		adj[v] = make(map[ir.Reg]bool)
	}
	for i, a := range order {
		ra := ranges[a]
		for _, bb := range order[i+1:] {
			rb := ranges[bb]
			if ra.start < rb.end && rb.start < ra.end {
				adj[a][bb] = true
				adj[bb][a] = true
			}
		}
	}

	k := cfg.Regs - cfg.SpillPool

	// Simplify with optimistic spilling (Briggs).
	degree := make(map[ir.Reg]int, len(order))
	removed := make(map[ir.Reg]bool, len(order))
	uses := useCounts(b)
	for _, v := range order {
		degree[v] = len(adj[v])
	}
	var stack []ir.Reg
	remaining := len(order)
	for remaining > 0 {
		// Prefer any node with degree < k (deterministic order).
		picked := ir.NoReg
		for _, v := range order {
			if !removed[v] && degree[v] < k {
				picked = v
				break
			}
		}
		if picked == ir.NoReg {
			// Spill candidate: minimal uses/degree ratio (Chaitin's cost
			// heuristic with unit-cost uses), pushed optimistically.
			best, bestScore := ir.NoReg, 0.0
			for _, v := range order {
				if removed[v] {
					continue
				}
				score := float64(uses[v]+1) / float64(degree[v]+1)
				if best == ir.NoReg || score < bestScore {
					best, bestScore = v, score
				}
			}
			picked = best
		}
		removed[picked] = true
		remaining--
		stack = append(stack, picked)
		for n := range adj[picked] {
			if !removed[n] {
				degree[n]--
			}
		}
	}

	// Select phase: assign colors in reverse removal order.
	color := make(map[ir.Reg]int, len(order))
	var spilled []ir.Reg
	for i := len(stack) - 1; i >= 0; i-- {
		v := stack[i]
		taken := make([]bool, k)
		for c := 0; c < k; c++ {
			if reserved[c] {
				taken[c] = true // live-in physical registers keep their color
			}
		}
		for n := range adj[v] {
			if c, ok := color[n]; ok {
				taken[c] = true
			}
		}
		assigned := -1
		for c := 0; c < k; c++ {
			if !taken[c] {
				assigned = c
				break
			}
		}
		if assigned < 0 {
			spilled = append(spilled, v)
			continue
		}
		color[v] = assigned
	}

	stats := Stats{MaxPressure: maxOverlap(ranges)}
	if err := rewriteColored(b, cfg, color, spilled, reserved, &stats); err != nil {
		return Stats{}, err
	}
	ir.Renumber(b)
	return stats, nil
}

type liveRange struct {
	start, end int
}

// liveRanges computes [first def, last use) ranges; live-out values
// extend to the block end. The range end is exclusive of reuse: a value
// last used at instruction i frees its register for a definition at i.
func liveRanges(b *ir.Block) map[ir.Reg]liveRange {
	ranges := make(map[ir.Reg]liveRange)
	var uses []ir.Reg
	for idx, in := range b.Instrs {
		uses = in.AppendUses(uses[:0])
		for _, u := range uses {
			if u.IsVirt() {
				r := ranges[u]
				r.end = idx
				ranges[u] = r
			}
		}
		if d := in.Def(); d.IsVirt() {
			if _, seen := ranges[d]; !seen {
				ranges[d] = liveRange{start: idx, end: idx}
			}
		}
	}
	for _, r := range b.LiveOut {
		if r.IsVirt() {
			lr := ranges[r]
			lr.end = len(b.Instrs)
			ranges[r] = lr
		}
	}
	return ranges
}

func useCounts(b *ir.Block) map[ir.Reg]int {
	counts := make(map[ir.Reg]int)
	var uses []ir.Reg
	for _, in := range b.Instrs {
		uses = in.AppendUses(uses[:0])
		for _, u := range uses {
			if u.IsVirt() {
				counts[u]++
			}
		}
	}
	return counts
}

// maxOverlap returns the peak number of simultaneously live ranges.
func maxOverlap(ranges map[ir.Reg]liveRange) int {
	type event struct {
		at    int
		delta int
	}
	var evs []event
	for _, r := range ranges {
		evs = append(evs, event{r.start, 1}, event{r.end, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta // close before open at the same point
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

func checkDefBeforeUse(b *ir.Block) error {
	defined := make(map[ir.Reg]bool)
	var uses []ir.Reg
	for idx, in := range b.Instrs {
		uses = in.AppendUses(uses[:0])
		for _, u := range uses {
			if u.IsVirt() && !defined[u] {
				return fmt.Errorf("regalloc: block %s instr %d uses %v before definition", b.Label, idx, u)
			}
		}
		if d := in.Def(); d.IsVirt() {
			defined[d] = true
		}
	}
	return nil
}

// rewriteColored substitutes colors for virtual registers and inserts
// spill-everywhere code for the spilled set: a store after every
// definition and a pool-register reload before every use. Reserved
// (live-in physical) registers are excluded from the pool. It returns a
// PressureError when the spill pool cannot serve the rewrite.
func rewriteColored(b *ir.Block, cfg Config, color map[ir.Reg]int, spilledList []ir.Reg, reserved []bool, stats *Stats) error {
	spilled := make(map[ir.Reg]bool, len(spilledList))
	for _, v := range spilledList {
		spilled[v] = true
	}
	pool := make([]ir.Reg, 0, cfg.SpillPool)
	for i := cfg.Regs - cfg.SpillPool; i < cfg.Regs; i++ {
		if !reserved[i] {
			pool = append(pool, ir.Phys(i))
		}
	}
	if len(pool) < 3 && len(spilledList) > 0 {
		return &PressureError{
			Block:  b.Label,
			Instr:  -1,
			Detail: "spill pool crowded out by reserved registers",
		}
	}
	idx := -1 // current instruction, for error context
	var poolErr error
	takePool := func(inUse map[ir.Reg]bool) ir.Reg {
		p := pool[0]
		for tries := 0; inUse[p]; tries++ {
			if tries >= len(pool) {
				poolErr = &PressureError{
					Block:  b.Label,
					Instr:  idx,
					Detail: fmt.Sprintf("spill pool of %d exhausted by a single instruction", len(pool)),
				}
				return ir.NoReg
			}
			pool = append(pool[1:], p)
			p = pool[0]
		}
		pool = append(pool[1:], p)
		return p
	}

	var out []*ir.Instr
	for i, in := range b.Instrs {
		idx = i
		inUse := make(map[ir.Reg]bool)
		rewrite := func(r ir.Reg) ir.Reg {
			if poolErr != nil || !r.IsVirt() {
				if !r.IsVirt() {
					inUse[r] = true
				}
				return r
			}
			if spilled[r] {
				p := takePool(inUse)
				if poolErr != nil {
					return r
				}
				out = append(out, &ir.Instr{
					Op: ir.OpLoad, Dst: p,
					Sym: StackSym, Off: slotOf(r), IsSpill: true,
				})
				stats.SpillLoads++
				inUse[p] = true
				return p
			}
			p := ir.Phys(color[r])
			inUse[p] = true
			return p
		}
		for k, s := range in.Srcs {
			in.Srcs[k] = rewrite(s)
		}
		if in.Op.IsMem() && in.Base != ir.NoReg {
			in.Base = rewrite(in.Base)
		}
		if poolErr != nil {
			return poolErr
		}
		if d := in.Def(); d.IsVirt() {
			if spilled[d] {
				// Define into a pool register, store to the slot. The
				// write happens after the instruction's reads, so the
				// register of a same-instruction reload may be reused.
				p := takePool(map[ir.Reg]bool{})
				if poolErr != nil {
					return poolErr
				}
				in.Dst = p
				out = append(out, in)
				out = append(out, &ir.Instr{
					Op: ir.OpStore, Srcs: []ir.Reg{p},
					Sym: StackSym, Off: slotOf(d), IsSpill: true,
				})
				stats.SpillStores++
				continue
			}
			in.Dst = ir.Phys(color[d])
		}
		out = append(out, in)
	}
	b.Instrs = out
	return nil
}
