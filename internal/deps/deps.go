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

	// Built together on first use by ensureClosures, each family in one
	// flat backing array: Succ(i) and Pred(i) as bitset rows, and the
	// transitive reduction as ascending per-node lists.
	succClosure  []bitset.Set
	predClosure  []bitset.Set
	reducedSuccs [][]int32
	reducedPreds [][]int32
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

// BuildBudgeted is Build under a work budget: construction charges one
// unit per instruction, one per prior memory reference considered by the
// disambiguator (the quadratic term on store-heavy blocks) and one per
// control edge. It returns the budget's error as soon as the cap or the
// budget's context trips; a nil budget means unlimited.
func BuildBudgeted(b *ir.Block, opts BuildOptions, wb *budget.Budget) (*Graph, error) {
	n := len(b.Instrs)
	g := &Graph{
		Block: b,
		Succs: make([][]Edge, n),
		Preds: make([][]Edge, n),
	}

	type edgeKey struct {
		from, to int
		kind     EdgeKind
	}
	seen := make(map[edgeKey]bool)
	addEdge := func(from, to int, kind EdgeKind) {
		if from == to || from < 0 || to < 0 {
			return
		}
		if from > to {
			panic(fmt.Sprintf("deps: backward edge %d->%d", from, to))
		}
		k := edgeKey{from, to, kind}
		if seen[k] {
			return
		}
		seen[k] = true
		g.Succs[from] = append(g.Succs[from], Edge{To: to, Kind: kind})
		g.Preds[to] = append(g.Preds[to], Edge{To: from, Kind: kind})
	}

	lastDef := make(map[ir.Reg]int)
	lastUses := make(map[ir.Reg][]int)
	// memOps records previous memory references with the version of their
	// base register (the defining instruction at the time) so that
	// references off the same unmodified base with distinct constant
	// offsets disambiguate exactly.
	var memOps []memRef
	lastBarrier := -1

	for j, in := range b.Instrs {
		cost := int64(1)
		if in.Op.IsMem() {
			cost += int64(len(memOps))
		}
		if in.Op.IsTerminator() || in.Op == ir.OpCall {
			cost += int64(j)
		}
		if err := wb.Charge(cost); err != nil {
			return nil, err
		}
		// Register dependences. Uses first, then the def.
		for _, r := range in.Uses() {
			if d, ok := lastDef[r]; ok {
				addEdge(d, j, True)
			}
			lastUses[r] = append(lastUses[r], j)
		}
		if d := in.Def(); d != ir.NoReg {
			for _, u := range lastUses[d] {
				if u != j {
					addEdge(u, j, Anti)
				}
			}
			if prev, ok := lastDef[d]; ok {
				addEdge(prev, j, Output)
			}
			lastDef[d] = j
			delete(lastUses, d)
		}

		// Memory dependences.
		if in.Op.IsMem() {
			ref := memRef{node: j, sym: in.Sym, base: in.Base, off: in.Off, baseVer: -1}
			if in.Base != ir.NoReg {
				if d, ok := lastDef[in.Base]; ok {
					ref.baseVer = d
				}
			}
			for _, prev := range memOps {
				pi := b.Instrs[prev.node]
				if !mayAlias(prev, pi, ref, in, opts.Alias) {
					continue
				}
				switch {
				case pi.Op.IsStore() && in.Op.IsLoad():
					addEdge(prev.node, j, Mem)
				case pi.Op.IsLoad() && in.Op.IsStore():
					addEdge(prev.node, j, Mem)
				case pi.Op.IsStore() && in.Op.IsStore():
					addEdge(prev.node, j, Mem)
				}
			}
			memOps = append(memOps, ref)
		}

		// Call barriers: nothing moves across a call.
		if in.Op == ir.OpCall {
			start := lastBarrier
			if start < 0 {
				start = 0
			}
			for k := start; k < j; k++ {
				addEdge(k, j, Control)
			}
			lastBarrier = j
		} else if lastBarrier >= 0 {
			addEdge(lastBarrier, j, Control)
		}

		// Block terminator stays last.
		if in.Op.IsTerminator() {
			for k := 0; k < j; k++ {
				addEdge(k, j, Control)
			}
		}
	}
	return g, nil
}

// memRef identifies a memory reference for disambiguation: the symbol,
// the base register and the version of that base (the instruction that
// defined it when the reference was made; -1 for an undefined/live-in
// base or no base at all).
type memRef struct {
	node    int
	sym     string
	base    ir.Reg
	baseVer int
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
func mayAlias(a memRef, ai *ir.Instr, b memRef, bi *ir.Instr, mode AliasMode) bool {
	if ai.Sym == "" || bi.Sym == "" {
		return true
	}
	if ai.Sym != bi.Sym {
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

// Reduction returns the DAG's transitive reduction: preds[v] and succs[v]
// list, ascending, v's direct predecessors and successors except those
// that a longer path also connects to v. It reaches exactly what the
// full DAG reaches, and its longest paths are the DAG's. The lists are
// shared; do not mutate.
func (g *Graph) Reduction() (preds, succs [][]int32) {
	g.ensureClosures()
	return g.reducedPreds, g.reducedSuccs
}

// Independent returns the set G_ind for instruction i: every node except i
// and its transitive predecessors and successors (Fig. 6, line 3). The
// caller owns the returned set.
func (g *Graph) Independent(i int) *bitset.Set {
	s := bitset.New(g.N())
	g.FillIndependent(s, i)
	return s
}

// FillIndependent overwrites s, a set of capacity N, with G_ind(i): the
// allocation-free form of Independent for loops over every instruction.
func (g *Graph) FillIndependent(s *bitset.Set, i int) {
	s.Fill()
	s.Subtract(g.PredClosure(i))
	s.Subtract(g.SuccClosure(i))
	s.Remove(i)
}

func (g *Graph) ensureClosures() {
	if g.succClosure != nil {
		return
	}
	n := g.N()
	succ := bitset.NewRows(n, n)
	pred := bitset.NewRows(n, n)
	succs := make([][]int32, n)
	kept := make([]int32, 0, g.NumEdges())
	inDeg := make([]int32, n)
	direct := bitset.New(n)
	// Edges point forward, so instruction order is a topological order:
	// walking it backwards, every successor's closure is already final.
	// Taking i's direct successors in ascending order, one that an
	// earlier successor already reaches is implied by a longer path and
	// left out of the reduction (and adds nothing to the closure).
	for i := n - 1; i >= 0; i-- {
		for _, e := range g.Succs[i] {
			direct.Add(e.To)
		}
		s, start := &succ[i], len(kept)
		for v := direct.Next(0); v >= 0; v = direct.Next(v + 1) {
			direct.Remove(v)
			if s.Has(v) {
				continue
			}
			kept = append(kept, int32(v))
			inDeg[v]++
			s.Add(v)
			s.Union(&succ[v])
		}
		succs[i] = kept[start:len(kept):len(kept)]
	}
	// Transpose into ascending predecessor lists over one array; Pred(v)
	// is then the union over v's reduced predecessors.
	preds := make([][]int32, n)
	flat := make([]int32, len(kept))
	off := int32(0)
	for v := range preds {
		preds[v] = flat[off : off : off+inDeg[v]]
		off += inDeg[v]
	}
	for i, vs := range succs {
		for _, v := range vs {
			preds[v] = append(preds[v], int32(i))
		}
	}
	for v, us := range preds {
		p := &pred[v]
		for _, u := range us {
			p.Add(int(u))
			p.Union(&pred[u])
		}
	}
	g.succClosure, g.predClosure = succ, pred
	g.reducedSuccs, g.reducedPreds = succs, preds
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
