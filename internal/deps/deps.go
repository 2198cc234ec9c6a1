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

	succClosure []*bitset.Set
	predClosure []*bitset.Set
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
	return g.predClosure[i]
}

// SuccClosure returns the set of transitive successors of i (Succ(i) in the
// paper, not including i itself). The result is shared; do not mutate.
func (g *Graph) SuccClosure(i int) *bitset.Set {
	g.ensureClosures()
	return g.succClosure[i]
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
	g.succClosure = make([]*bitset.Set, n)
	g.predClosure = make([]*bitset.Set, n)
	// Edges point forward, so instruction order is a topological order.
	for i := n - 1; i >= 0; i-- {
		s := bitset.New(n)
		for _, e := range g.Succs[i] {
			s.Add(e.To)
			s.Union(g.succClosure[e.To])
		}
		g.succClosure[i] = s
	}
	for i := 0; i < n; i++ {
		s := bitset.New(n)
		for _, e := range g.Preds[i] {
			s.Add(e.To)
			s.Union(g.predClosure[e.To])
		}
		g.predClosure[i] = s
	}
}

// Components partitions the nodes of include into connected components of
// the underlying undirected graph restricted to include. Each component is
// returned in ascending node order.
func (g *Graph) Components(include *bitset.Set) [][]int {
	var comps [][]int
	visited := bitset.New(g.N())
	stack := make([]int, 0, g.N())
	for start := include.Next(0); start >= 0; start = include.Next(start + 1) {
		if visited.Has(start) {
			continue
		}
		var comp []int
		stack = append(stack[:0], start)
		visited.Add(start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, e := range g.Succs[v] {
				if include.Has(e.To) && !visited.Has(e.To) {
					visited.Add(e.To)
					stack = append(stack, e.To)
				}
			}
			for _, e := range g.Preds[v] {
				if include.Has(e.To) && !visited.Has(e.To) {
					visited.Add(e.To)
					stack = append(stack, e.To)
				}
			}
		}
		sortInts(comp)
		comps = append(comps, comp)
	}
	return comps
}

// MaxLoadPath returns the maximum number of load instructions on any
// directed path whose nodes all lie in include ∩ comp — the paper's
// "Chances" for a connected component (Fig. 6, line 5). It returns 0 when
// the component contains no loads.
func (g *Graph) MaxLoadPath(comp []int, include *bitset.Set) int {
	// comp is in ascending order, which is topological.
	best := 0
	dp := make(map[int]int, len(comp))
	for _, v := range comp {
		loads := 0
		if g.IsLoad(v) {
			loads = 1
		}
		m := 0
		for _, e := range g.Preds[v] {
			if include.Has(e.To) {
				if d, ok := dp[e.To]; ok && d > m {
					m = d
				}
			}
		}
		dp[v] = m + loads
		if dp[v] > best {
			best = dp[v]
		}
	}
	return best
}

// Loads returns the nodes of comp that are load instructions.
func (g *Graph) Loads(comp []int) []int {
	var out []int
	for _, v := range comp {
		if g.IsLoad(v) {
			out = append(out, v)
		}
	}
	return out
}

// LevelsFromLeaves labels each node of include with its level from the
// farthest leaf within include: leaves are level 0 and each node is one
// more than the maximum level of its included successors. This is the
// labelling the paper's union-find implementation uses (core's
// ChancesUnionFind, selected only by ablation A2).
func (g *Graph) LevelsFromLeaves(include *bitset.Set) map[int]int {
	levels := make(map[int]int)
	for v := g.N() - 1; v >= 0; v-- {
		if !include.Has(v) {
			continue
		}
		lvl := 0
		for _, e := range g.Succs[v] {
			if include.Has(e.To) {
				if l, ok := levels[e.To]; ok && l+1 > lvl {
					lvl = l + 1
				}
			}
		}
		levels[v] = lvl
	}
	return levels
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

func sortInts(s []int) {
	// Insertion sort: components are small and usually already ordered
	// (DFS over a forward-edge DAG yields mostly-sorted output).
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
