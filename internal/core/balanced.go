// Package core implements the paper's primary contribution: balanced
// scheduling weight computation (Fig. 6).
//
// Instead of giving every load a fixed, implementation-defined latency
// weight, balanced scheduling derives each load's weight from the amount of
// instruction level parallelism available to it ("load level parallelism").
// For every instruction i in the code DAG G:
//
//  1. G_ind = G − (Pred(i) ∪ Succ(i)) — the instructions that may execute
//     in parallel with i;
//  2. for each connected component C of G_ind, Chances = the maximum number
//     of load instructions on any directed path within C (loads in series
//     must split i between them; loads in parallel share it);
//  3. every load in C accumulates IssueSlots(i)/Chances.
//
// A load's weight is 1 (its own issue slot) plus its accumulated credit.
// The weights plug into an otherwise unchanged list scheduler
// (bsched/internal/sched).
package core

import (
	"math/bits"

	"bsched/internal/bitset"
	"bsched/internal/budget"
	"bsched/internal/deps"
	"bsched/internal/ir"
)

// ChancesMethod selects how the per-component Chances value is computed.
type ChancesMethod int

const (
	// ChancesDP computes the exact maximum number of candidate loads on
	// any directed path in the component (the algorithm as stated in
	// Fig. 6, line 5).
	ChancesDP ChancesMethod = iota
	// ChancesUnionFind reproduces the paper's O(n·α(n)) implementation
	// sketch: nodes are labelled with levels from the farthest leaf, the
	// set-union structure tracks min/max levels, and the component's
	// largest path length (max−min+1) stands in for the load count. It is
	// an approximation whenever non-load instructions appear on the
	// longest path; ablation A2 quantifies the difference.
	ChancesUnionFind
)

// Options configures the weight computation.
type Options struct {
	// IssueSlots returns the number of issue slots instruction i requires.
	// nil means 1 for every instruction (single-issue pipeline). The §6
	// superscalar extension passes fractions of a cycle here.
	IssueSlots func(in *ir.Instr) float64

	// Balanced reports whether an opcode receives a balanced weight.
	// nil means loads only. The §6 extension for asynchronous floating
	// point units adds FP opcodes.
	Balanced func(op ir.Op) bool

	// Chances selects the component-analysis implementation.
	Chances ChancesMethod
}

func (o *Options) issueSlots(in *ir.Instr) float64 {
	if o.IssueSlots == nil {
		return 1
	}
	return o.IssueSlots(in)
}

func (o *Options) balanced(in *ir.Instr) bool {
	// Instructions with a statically known latency opt out of balancing
	// (§6, e.g. the second access to a cache line).
	if in.KnownLatency > 0 {
		return false
	}
	if o.Balanced == nil {
		return in.Op.IsLoad()
	}
	return o.Balanced(in.Op)
}

// Weights runs the balanced scheduling algorithm on g and returns a weight
// for every node. Balanced candidates (by default, loads without a known
// latency) get 1 plus their accumulated load-level-parallelism credit;
// instructions with a KnownLatency get that value; everything else gets 1.
func Weights(g *deps.Graph, opts Options) []float64 {
	w, _, err := run(g, opts, false, nil)
	if err != nil {
		// A nil budget never trips; this branch is unreachable.
		panic("core: unbudgeted weights failed: " + err.Error())
	}
	return w
}

// WeightsBudgeted is Weights under a work budget. The computation charges
// one unit per instruction and, per connected component analysed, one
// unit per component node — doubled for the exact ChancesDP method. When
// the budget (or its context) trips, the partial result is discarded and
// the budget's error returned; callers degrade to a cheaper weighting
// instead (see bsched/internal/compile). A nil budget means unlimited.
func WeightsBudgeted(g *deps.Graph, opts Options, wb *budget.Budget) ([]float64, error) {
	w, _, err := run(g, opts, false, wb)
	return w, err
}

// Contributions returns, alongside the weights, the full contribution
// matrix: contrib[l][i] is the credit instruction i added to candidate l
// (zero elsewhere). This is the data behind the paper's Table 1.
func Contributions(g *deps.Graph, opts Options) (weights []float64, contrib [][]float64) {
	w, c, _ := run(g, opts, true, nil)
	return w, c
}

func run(g *deps.Graph, opts Options, wantContrib bool, wb *budget.Budget) ([]float64, [][]float64, error) {
	n := g.N()
	k := newKernel(g, opts)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		switch in := g.Instr(i); {
		case k.candidate(i):
			weights[i] = 1 // Fig. 6, line 1
		case in.KnownLatency > 0:
			weights[i] = in.KnownLatency
		default:
			weights[i] = 1
		}
	}

	var contrib [][]float64
	if wantContrib {
		contrib = make([][]float64, n)
		for i := range contrib {
			contrib[i] = make([]float64, n)
		}
	}

	// compCost is the budget charge per component node: 2 for the exact
	// DP, 1 for ablation A2's union-find approximation. These units
	// predate the kernel below and do not track its time, but changing
	// them would move every budget's degradation point.
	compCost := int64(2)
	if opts.Chances == ChancesUnionFind {
		compCost = 1
	}
	for i := 0; i < n; i++ { // Fig. 6, line 2
		if err := wb.Charge(1); err != nil {
			return nil, nil, err
		}
		k.start(i) // line 3
		slots := opts.issueSlots(g.Instr(i))
		for k.next() { // line 4
			if err := wb.Charge(compCost * int64(k.size)); err != nil {
				return nil, nil, err
			}
			c := k.chances() // line 5
			if c == 0 {
				continue
			}
			credit := slots / float64(c)
			for j := k.lo; j <= k.hi; j++ { // lines 6–7
				for x := k.words[j].comp & k.words[j].cand; x != 0; x &= x - 1 {
					l := j<<6 | bits.TrailingZeros64(x)
					weights[l] += credit
					if wantContrib {
						contrib[l][i] += credit
					}
				}
			}
		}
	}
	return weights, contrib, nil
}

// kernel runs lines 3–5 of Fig. 6 for one instruction at a time, as
// word-parallel operations on the DAG's two transitive-closure bit
// matrices (deps.Graph.Closures), read in place, over scratch reused for
// every instruction, so a whole weight pass allocates a constant number
// of times whatever the block size.
//
// Both analyses rest on G_ind(i) being convex: a path between two G_ind
// nodes cannot pass through Pred(i) ∪ Succ(i) — a node of Pred(i) on it
// would make its start a predecessor of i, one of Succ(i) its end a
// successor. So two G_ind nodes one of which reaches the other lie in
// one component, joined by a path inside it, and a component is closed
// under the reachability its closure rows record.
type kernel struct {
	g          *deps.Graph
	pred, succ []bitset.Set // the closure rows, shared with g
	levels     bool         // Chances from leaf levels (ChancesUnionFind)

	// words holds the per-instruction state, 64 nodes to a word.
	words []word
	// chain holds rows of len(words) words: row k-1 is the candidates
	// visited for this instruction whose longest candidate chain has k
	// members (ChancesDP). used is how many rows hold any.
	chain []uint64
	used  int

	// The component next took last: its node count and the first and
	// last words it occupies. cursor is the first word of ind that may
	// hold a node, as components come out by ascending lowest node.
	size, lo, hi, cursor int

	// level is, per node, its level from the farthest leaf of its
	// component (ChancesUnionFind).
	level []int32
}

// word is the kernel's state for 64 consecutive nodes, a bit each, kept
// together so that each step touches one record per closure-row word.
type word struct {
	ind  uint64 // G_ind(i) not yet taken by a component
	comp uint64 // the component next took last
	anc  uint64 // the union of the ancestor rows next OR-ed for comp
	desc uint64 // the union of the descendant rows next OR-ed for comp
	up   uint64 // taken nodes whose ancestor rows are still due
	down uint64 // taken nodes whose descendant rows are still due
	cand uint64 // the balanced candidates
}

func newKernel(g *deps.Graph, opts Options) *kernel {
	n := g.N()
	pred, succ := g.Closures()
	k := &kernel{g: g, pred: pred, succ: succ, levels: opts.Chances == ChancesUnionFind}
	k.words = make([]word, (n+63)/64)
	for v := 0; v < n; v++ {
		if opts.balanced(g.Instr(v)) {
			k.words[v>>6].cand |= 1 << (v & 63)
		}
	}
	if k.levels {
		k.level = make([]int32, n)
		return k
	}
	// The most candidates on any path of the DAG bounds every
	// component's chain, so it sizes the chain rows.
	most, chains := make([]int32, n), int32(0)
	for v := 0; v < n; v++ {
		m := int32(0)
		for _, e := range g.Preds[v] {
			m = max(m, most[e.To])
		}
		if k.candidate(v) {
			m++
		}
		most[v] = m
		chains = max(chains, m)
	}
	k.chain = make([]uint64, int(chains)*len(k.words))
	return k
}

// candidate reports whether node v is a balanced candidate.
func (k *kernel) candidate(v int) bool { return k.words[v>>6].cand&(1<<(v&63)) != 0 }

// start begins instruction i: ind becomes G_ind(i) (Fig. 6, line 3),
// the complement of i and its two closure rows.
func (k *kernel) start(i int) {
	clear(k.chain[:k.used*len(k.words)])
	k.used = 0
	p, s := k.pred[i].Words(), k.succ[i].Words()
	for j := range k.words {
		k.words[j].ind = ^(p[j] | s[j])
	}
	k.words[i>>6].ind &^= 1 << (i & 63)
	if n := k.g.N(); n&63 != 0 {
		k.words[n>>6].ind &= 1<<(n&63) - 1
	}
	k.cursor = 0
}

// next takes the component of G_ind(i) holding the lowest node ind still
// has out of ind into comp (Fig. 6, line 4), and reports false when ind
// is empty. The component grows from that node s by OR-ing closure rows
// masked to ind: s's descendants, then their ancestors, then theirs,
// and so on. A node taken from a descendant row has its own
// descendants in that row, so only its ancestor row can add nodes, and
// the reverse for a node taken from an ancestor row; s is lowest, so
// only its descendant row can. Nor can the row of a node that an OR-ed
// row of the same direction holds, so anc and desc collect the OR-ed
// rows, and up and down, the nodes whose ancestor and descendant rows
// are due, drop what those cover. down gives up its lowest node first
// and up its highest, a node that no other due row of its direction
// holds.
func (k *kernel) next() bool {
	ws := k.words
	for j := k.lo; j < len(ws); j++ {
		ws[j].comp, ws[j].anc, ws[j].desc = 0, 0, 0
	}
	for k.cursor < len(ws) && ws[k.cursor].ind == 0 {
		k.cursor++
	}
	if k.cursor == len(ws) {
		return false
	}
	lo := k.cursor
	s := &ws[lo]
	b := s.ind & -s.ind
	s.ind &^= b
	s.comp, s.down = b, b
	hi, size := lo, 1
	for {
		j := lo
		for j <= hi && ws[j].down == 0 {
			j++
		}
		if j <= hi {
			v := j<<6 | bits.TrailingZeros64(ws[j].down)
			ws[j].down &^= 1 << (v & 63)
			row := k.succ[v].Words()[j:]
			st := ws[j:][:len(row)]
			for x, r := range row {
				s := &st[x]
				s.desc |= r
				s.down &^= r
				if t := r & s.ind; t != 0 {
					s.ind &^= t
					s.comp |= t
					s.up |= t &^ s.anc
					hi = max(hi, j+x)
					size += bits.OnesCount64(t)
				}
			}
			continue
		}
		j = hi
		for j >= lo && ws[j].up == 0 {
			j--
		}
		if j < lo {
			break
		}
		v := j<<6 | (63 - bits.LeadingZeros64(ws[j].up))
		ws[j].up &^= 1 << (v & 63)
		row := k.pred[v].Words()[lo : j+1]
		st := ws[lo:][:len(row)]
		for x, r := range row {
			s := &st[x]
			s.anc |= r
			s.up &^= r
			if t := r & s.ind; t != 0 {
				s.ind &^= t
				s.comp |= t
				s.down |= t &^ s.desc
				size += bits.OnesCount64(t)
			}
		}
	}
	k.lo, k.hi, k.size = lo, hi, size
	return true
}

// chances is Fig. 6's Chances for comp (line 5): the most candidates on
// one directed path (ChancesDP), or the paper's union-find stand-in,
// the component's leaf-level range max−min+1 (ChancesUnionFind). Both
// are 0 for a component without candidates.
//
// The candidates on one path form a chain under reachability, and by
// convexity every chain of comp's candidates lies on one path inside
// comp, so the DP is the longest such chain. Visiting the candidates in
// ascending (topological) order, l's longest chain ends one past the
// longest among its visited ancestors. That is the largest k with chain
// row k-1 meeting Pred(l): a chain of k' ≥ k ending at one of them has
// its k-th member in that row and in Pred(l), so the test is monotone
// in k and binary search finds the boundary. Earlier components' rows
// never meet Pred(l), as their nodes are unrelated to l.
//
// For ablation A2, every component holds a sink of G_ind, whose level
// is 0, so the range is the highest level plus one; a descending sweep
// over each node's direct successors inside comp finds it. The full
// DAG's longest paths are its transitive reduction's, so this is the
// level the paper's sketch reads off the reduced DAG.
func (k *kernel) chances() int {
	if k.levels {
		has := false
		for _, s := range k.words[k.lo : k.hi+1] {
			if s.comp&s.cand != 0 {
				has = true
				break
			}
		}
		if !has {
			return 0
		}
		top := int32(0)
		for j := k.hi; j >= k.lo; j-- {
			comp := k.words[j].comp
			for x := comp; x != 0; {
				b := 63 - bits.LeadingZeros64(x)
				x &^= 1 << b
				v, lvl := j<<6|b, int32(0)
				for _, e := range k.g.Succs[v] {
					if k.words[e.To>>6].comp&(1<<(e.To&63)) != 0 {
						lvl = max(lvl, k.level[e.To]+1)
					}
				}
				k.level[v] = lvl
				top = max(top, lvl)
			}
		}
		return int(top) + 1
	}
	w, top := len(k.words), 0
	for j := k.lo; j <= k.hi; j++ {
		for x := k.words[j].comp & k.words[j].cand; x != 0; x &= x - 1 {
			l := j<<6 | bits.TrailingZeros64(x)
			p := k.pred[l].Words()[k.lo : j+1]
			below, above := 0, top // row below-1 meets Pred(l), row above does not
			for below < above {
				mid := (below + above + 1) / 2
				if meets(k.chain[(mid-1)*w+k.lo:(mid-1)*w+j+1], p) {
					below = mid
				} else {
					above = mid - 1
				}
			}
			k.chain[below*w+j] |= 1 << (l & 63)
			top = max(top, below+1)
		}
	}
	k.used = max(k.used, top)
	return top
}

// meets reports whether a and b, of equal length, share a bit.
func meets(a, b []uint64) bool {
	b = b[:len(a)]
	for j, x := range a {
		if x&b[j] != 0 {
			return true
		}
	}
	return false
}

// LoadLevelParallelism is a diagnostic: for each load l it returns the
// number of instructions that may execute in parallel with l (|G_ind(l)|).
// Workload tuning and the experiments report aggregate LLP per benchmark.
func LoadLevelParallelism(g *deps.Graph) map[int]int {
	out := make(map[int]int)
	for i := 0; i < g.N(); i++ {
		if g.IsLoad(i) {
			out[i] = g.Independent(i).Count()
		}
	}
	return out
}
