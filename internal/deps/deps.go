// Package deps builds the code DAG for a basic block: nodes are
// instructions, edges are dependences (register true/anti/output, memory,
// control). The balanced scheduler's load-level-parallelism analysis and
// both list schedulers operate on this graph.
package deps

import (
	"fmt"
	"strings"

	"bsched/internal/bitset"
	"bsched/internal/budget"
	"bsched/internal/ir"
)

// EdgeKind classifies a dependence edge.
type EdgeKind uint8

const (
	// True is a register flow dependence (read after write). Only these
	// edges carry the producer's latency weight; all others require a gap
	// of a single issue slot.
	True EdgeKind = iota
	// Anti is a register anti-dependence (write after read).
	Anti
	// Output is a register output dependence (write after write).
	Output
	// Mem is a memory ordering dependence between loads and stores that
	// may alias (store→load, load→store, store→store).
	Mem
	// Control orders every instruction before the block terminator and
	// serializes across call barriers.
	Control
)

// String returns a short name for the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case True:
		return "true"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case Mem:
		return "mem"
	case Control:
		return "control"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Edge is a directed dependence to node To.
type Edge struct {
	To   int
	Kind EdgeKind
}

// AliasMode selects the memory disambiguation policy (§4.2).
type AliasMode int

const (
	// AliasDisjoint models the paper's Fortran transformation: references
	// to distinct symbols never alias (dummy arguments are disjoint).
	AliasDisjoint AliasMode = iota
	// AliasConservative models the raw f2c translation: any two memory
	// references to different symbols may alias, so loads cannot move
	// above stores.
	AliasConservative
)

func (m AliasMode) String() string {
	if m == AliasConservative {
		return "conservative"
	}
	return "disjoint"
}

// BuildOptions configures DAG construction.
type BuildOptions struct {
	Alias AliasMode
}

// Graph is the code DAG of one basic block. Node i is b.Instrs[i]; all
// edges point from lower to higher indices (the original program order is
// a topological order).
type Graph struct {
	Block *ir.Block
	Succs [][]Edge
	Preds [][]Edge

	// Succ(i) and Pred(i) as bitset rows, each family over one backing
	// array, built together on first use by ensureClosures.
	succClosure []bitset.Set
	predClosure []bitset.Set
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Block.Instrs) }

// Instr returns the instruction at node i.
func (g *Graph) Instr(i int) *ir.Instr { return g.Block.Instrs[i] }

// IsLoad reports whether node i is a load instruction.
func (g *Graph) IsLoad(i int) bool { return g.Block.Instrs[i].Op.IsLoad() }

// Build constructs the code DAG for a block.
func Build(b *ir.Block, opts BuildOptions) *Graph {
	g, err := BuildBudgeted(b, opts, nil)
	if err != nil {
		// A nil budget never trips; this branch is unreachable.
		panic("deps: unbudgeted build failed: " + err.Error())
	}
	return g
}

// BuildBudgeted is Build under a work budget. Construction charges one
// unit per instruction, plus, for a memory operation, one per earlier
// memory reference the disambiguator compares it with, plus, for a call
// or a terminator at index j, j units for its control edges. It returns
// the budget's error as soon as the cap or the budget's context trips;
// a nil budget means unlimited.
func BuildBudgeted(b *ir.Block, opts BuildOptions, wb *budget.Budget) (*Graph, error) {
	n := len(b.Instrs)
	// slots bounds both the block's distinct registers and its register
	// reads, so the per-register arrays never grow. (An invalid opcode
	// is left for the main loop to trip over, after the same charges.)
	slots, nmem := 0, 0
	for _, in := range b.Instrs {
		slots += len(in.Srcs) + 2
		if in.Op.Valid() && in.Op.IsMem() {
			nmem++
		}
	}
	// One allocation holds every int32 array: five per register or
	// read, and the per-node stamps, out-degrees and edge offsets.
	flat := make([]int32, 5*slots+(numKinds+2)*n+1)
	take := func(k int) []int32 {
		s := flat[:k:k]
		flat = flat[k:]
		return s
	}
	bl := &builder{
		n:        int32(n),
		ids:      make(map[ir.Reg]int32, n),
		lastDef:  take(slots)[:0],
		readHead: take(slots)[:0],
		readTail: take(slots)[:0],
		readAt:   take(slots)[:0],
		readNext: take(slots)[:0],
		stamp:    take(numKinds * n),
		preds:    make([]Edge, 0, 4*n),
	}
	outDeg, predEnd := take(n), take(n+1)
	// mems records the earlier memory references with the version of
	// their base register (its defining instruction at the time), so
	// references off the same unmodified base with distinct constant
	// offsets disambiguate exactly.
	mems := make([]memRef, 0, nmem)
	lastBarrier := int32(-1)
	uses := make([]ir.Reg, 0, 4)

	for j, in := range b.Instrs {
		cost := int64(1)
		if in.Op.IsMem() {
			cost += int64(len(mems))
		}
		if in.Op.IsTerminator() || in.Op == ir.OpCall {
			cost += int64(j)
		}
		if err := wb.Charge(cost); err != nil {
			return nil, err
		}
		at := int32(j)
		// Register dependences: the reads first, then the definition.
		uses = in.AppendUses(uses[:0])
		baseID := int32(-1) // a memory operation's base is its last read
		for _, r := range uses {
			id := bl.id(r)
			bl.edge(bl.lastDef[id], at, True)
			bl.read(id, at)
			baseID = id
		}
		if d := in.Def(); d != ir.NoReg {
			id := bl.id(d)
			for e := bl.readHead[id]; e >= 0; e = bl.readNext[e] {
				if u := bl.readAt[e]; u != at {
					bl.edge(u, at, Anti)
				}
			}
			bl.edge(bl.lastDef[id], at, Output)
			bl.lastDef[id] = at
			bl.readHead[id], bl.readTail[id] = -1, -1
		}

		// Memory dependences: every ordered pair that may alias, except
		// two loads.
		if in.Op.IsMem() {
			ref := memRef{node: at, load: in.Op.IsLoad(), sym: in.Sym, base: in.Base, off: in.Off, baseVer: -1}
			if in.Base != ir.NoReg {
				ref.baseVer = bl.lastDef[baseID]
			}
			for _, prev := range mems {
				if !(prev.load && ref.load) && mayAlias(prev, ref, opts.Alias) {
					bl.edge(prev.node, at, Mem)
				}
			}
			mems = append(mems, ref)
		}

		// Call barriers: nothing moves across a call.
		if in.Op == ir.OpCall {
			for k := max(lastBarrier, 0); k < at; k++ {
				bl.edge(k, at, Control)
			}
			lastBarrier = at
		} else {
			bl.edge(lastBarrier, at, Control)
		}

		// Block terminator stays last.
		if in.Op.IsTerminator() {
			for k := int32(0); k < at; k++ {
				bl.edge(k, at, Control)
			}
		}
		predEnd[j+1] = int32(len(bl.preds))
	}

	// Preds are subslices of the one edge array. Succs is its transpose:
	// visiting the nodes in order, and each node's predecessor edges in
	// the order they were found, lists every node's successors in the
	// order the edges were found.
	lists := make([][]Edge, 2*n)
	g := &Graph{Block: b, Preds: lists[:n:n], Succs: lists[n:]}
	for j := range g.Preds {
		if lo, hi := predEnd[j], predEnd[j+1]; hi > lo {
			g.Preds[j] = bl.preds[lo:hi:hi]
		}
	}
	for _, e := range bl.preds {
		outDeg[e.To]++
	}
	succs := make([]Edge, len(bl.preds))
	off := int32(0)
	for i, d := range outDeg {
		if d > 0 {
			g.Succs[i] = succs[off : off : off+d]
			off += d
		}
	}
	for j, es := range g.Preds {
		for _, e := range es {
			g.Succs[e.To] = append(g.Succs[e.To], Edge{To: j, Kind: e.Kind})
		}
	}
	return g, nil
}

// numKinds is the number of edge kinds.
const numKinds = int(Control) + 1

// builder is BuildBudgeted's state. Registers are numbered densely as
// they are first seen, so each register's last definition and its
// reads since that definition live in flat arrays indexed by that
// number. Every edge found while visiting instruction at ends at at, so
// stamp[kind*n+from] == at+1 marks from→at of that kind as already
// added, and the edges go, node after node, into one array.
type builder struct {
	n   int32
	ids map[ir.Reg]int32
	// Per register number: the instruction that last defined it (-1 for
	// none), and the first and last entry of its list of reads since
	// then (-1 for an empty list).
	lastDef, readHead, readTail []int32
	// Per read-list entry: the reading instruction and the next entry.
	readAt, readNext []int32
	stamp            []int32
	preds            []Edge
}

// id returns r's dense number, numbering it on first sight.
func (bl *builder) id(r ir.Reg) int32 {
	id, ok := bl.ids[r]
	if !ok {
		id = int32(len(bl.lastDef))
		bl.ids[r] = id
		bl.lastDef = append(bl.lastDef, -1)
		bl.readHead = append(bl.readHead, -1)
		bl.readTail = append(bl.readTail, -1)
	}
	return id
}

// read appends instruction at to register id's list of reads.
func (bl *builder) read(id, at int32) {
	e := int32(len(bl.readAt))
	bl.readAt = append(bl.readAt, at)
	bl.readNext = append(bl.readNext, -1)
	if t := bl.readTail[id]; t >= 0 {
		bl.readNext[t] = e
	} else {
		bl.readHead[id] = e
	}
	bl.readTail[id] = e
}

// edge adds from→at of the given kind unless it is already present;
// from < 0 (no such instruction) adds nothing.
func (bl *builder) edge(from, at int32, kind EdgeKind) {
	if from < 0 {
		return
	}
	s := &bl.stamp[int32(kind)*bl.n+from]
	if *s == at+1 {
		return
	}
	*s = at + 1
	bl.preds = append(bl.preds, Edge{To: int(from), Kind: kind})
}

// memRef identifies a memory reference for disambiguation: whether it
// is a load, the symbol, the base register and the version of that base
// (the instruction that defined it when the reference was made; -1 for
// an undefined/live-in base or no base at all).
type memRef struct {
	node    int32
	load    bool
	sym     string
	base    ir.Reg
	baseVer int32
	off     int64
}

// mayAlias reports whether two memory references may access the same
// location under the given mode:
//
//   - an unknown symbol ("" — the raw-pointer world) aliases everything;
//   - distinct symbols are disjoint under AliasDisjoint (the paper's §4.2
//     Fortran-argument rule) and may alias under AliasConservative;
//   - within a symbol, two references off the same base register version
//     (including both base-less, e.g. spill slots) alias exactly when
//     their constant offsets are equal — valid in both C and Fortran,
//     this is the constant-offset disambiguation any 1990s compiler
//     performed;
//   - otherwise (different or redefined bases) the references may alias.
func mayAlias(a, b memRef, mode AliasMode) bool {
	if a.sym == "" || b.sym == "" {
		return true
	}
	if a.sym != b.sym {
		return mode == AliasConservative
	}
	if a.base == b.base && a.baseVer == b.baseVer {
		return a.off == b.off
	}
	return true
}

// PredClosure returns the set of transitive predecessors of i (Pred(i) in
// the paper, not including i itself). The result is shared; do not mutate.
func (g *Graph) PredClosure(i int) *bitset.Set {
	g.ensureClosures()
	return &g.predClosure[i]
}

// SuccClosure returns the set of transitive successors of i (Succ(i) in the
// paper, not including i itself). The result is shared; do not mutate.
func (g *Graph) SuccClosure(i int) *bitset.Set {
	g.ensureClosures()
	return &g.succClosure[i]
}

// Closures returns Pred(v) and Succ(v) for every node v, as rows indexed
// by v of two bit matrices: the whole-DAG form of PredClosure and
// SuccClosure. The rows are shared; do not mutate.
func (g *Graph) Closures() (pred, succ []bitset.Set) {
	g.ensureClosures()
	return g.predClosure, g.succClosure
}

// Independent returns the set G_ind for instruction i: every node except i
// and its transitive predecessors and successors (Fig. 6, line 3). The
// caller owns the returned set.
func (g *Graph) Independent(i int) *bitset.Set {
	s := bitset.New(g.N())
	s.Fill()
	s.Subtract(g.PredClosure(i))
	s.Subtract(g.SuccClosure(i))
	s.Remove(i)
	return s
}

func (g *Graph) ensureClosures() {
	if g.succClosure != nil {
		return
	}
	n := g.N()
	succ := bitset.NewRows(n, n)
	pred := bitset.NewRows(n, n)
	// Edges point forward, so instruction order is a topological order:
	// walking it backwards, every successor's closure is already final,
	// and walking it forwards, every predecessor's. A direct neighbour
	// that an earlier one's closure already holds adds nothing.
	for i := n - 1; i >= 0; i-- {
		s := &succ[i]
		for _, e := range g.Succs[i] {
			if !s.Has(e.To) {
				s.Add(e.To)
				s.Union(&succ[e.To])
			}
		}
	}
	for v := 0; v < n; v++ {
		p := &pred[v]
		for _, e := range g.Preds[v] {
			if !p.Has(e.To) {
				p.Add(e.To)
				p.Union(&pred[e.To])
			}
		}
	}
	g.succClosure, g.predClosure = succ, pred
}

// CriticalPathLen returns the number of nodes on the longest directed path
// in the whole graph. Used by tests and workload diagnostics.
func (g *Graph) CriticalPathLen() int {
	n := g.N()
	dp := make([]int, n)
	best := 0
	for v := 0; v < n; v++ {
		m := 0
		for _, e := range g.Preds[v] {
			if dp[e.To] > m {
				m = dp[e.To]
			}
		}
		dp[v] = m + 1
		if dp[v] > best {
			best = dp[v]
		}
	}
	return best
}

// NumEdges returns the total number of dependence edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.Succs {
		n += len(es)
	}
	return n
}

// Dot renders the DAG in Graphviz dot syntax, for debugging and examples.
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph block {\n")
	for i, in := range g.Block.Instrs {
		shape := "box"
		if in.Op.IsLoad() {
			shape = "ellipse"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", i, fmt.Sprintf("%d: %s", i, in), shape)
	}
	for i, es := range g.Succs {
		for _, e := range es {
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", i, e.To, e.Kind)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
