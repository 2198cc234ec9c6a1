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
	"bsched/internal/bitset"
	"bsched/internal/budget"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/unionfind"
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
		case k.candidate[i]:
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
	// DP, 1 for ablation A2's union-find approximation. These units do
	// not track time — in the kernel below A2 is the slower of the two —
	// but changing them would move every budget's degradation point.
	compCost := int64(2)
	if opts.Chances == ChancesUnionFind {
		compCost = 1
	}
	// credit holds IssueSlots(i)/Chances per component root.
	credit := make([]float64, n)
	for i := 0; i < n; i++ { // Fig. 6, line 2
		if err := wb.Charge(1); err != nil {
			return nil, nil, err
		}
		k.analyse(i) // lines 3–5
		slots := opts.issueSlots(g.Instr(i))
		for _, r := range k.roots {
			if err := wb.Charge(compCost * int64(k.size[r])); err != nil {
				return nil, nil, err
			}
			if c := k.chances(r); c > 0 {
				credit[r] = slots / float64(c)
			}
		}
		for _, l := range k.members { // lines 6–7
			if k.candidate[l] {
				c := credit[k.label[l]]
				weights[l] += c
				if wantContrib {
					contrib[l][i] += c
				}
			}
		}
	}
	return weights, contrib, nil
}

// kernel runs lines 3–5 of Fig. 6 for one instruction at a time over
// scratch reused for every instruction, so a whole weight pass allocates
// a constant number of times whatever the block size.
//
// It walks the DAG's transitive reduction (deps.Graph.Reduction), which
// is exact here because G_ind is convex: a path between two G_ind nodes
// cannot pass through Pred(i) ∪ Succ(i) — a node of Pred(i) on it would
// make its start a predecessor of i, one of Succ(i) its end a successor.
// So every edge the reduction drops between G_ind nodes is implied by a
// path inside G_ind, and dropping it keeps every component, every
// longest candidate path and every leaf level.
type kernel struct {
	g         *deps.Graph
	ind       *bitset.Set // G_ind(i)
	preds     [][]int32   // the transitive reduction
	succs     [][]int32
	candidate []bool
	levels    bool // Chances from leaf-level ranges (ChancesUnionFind)

	// members lists G_ind(i) ascending, which is topological order.
	members []int32
	// label is a union-find forest over members, whose roots are always
	// their component's lowest node; after analyse, label[v] is v's root.
	label unionfind.Forest
	// val is, per node, the most candidates on a path ending there
	// (ChancesDP) or the node's level from its farthest leaf.
	val []int32
	// Per component root: node count, val's maximum, candidate count.
	size, hi, loads []int32
	// roots lists the component roots ascending — the order in which
	// the per-instruction components are charged and reported.
	roots []int32
}

func newKernel(g *deps.Graph, opts Options) *kernel {
	n := g.N()
	preds, succs := g.Reduction()
	k := &kernel{
		g:         g,
		ind:       bitset.New(n),
		preds:     preds,
		succs:     succs,
		candidate: make([]bool, n),
		levels:    opts.Chances == ChancesUnionFind,
		members:   make([]int32, 0, n),
		roots:     make([]int32, 0, n),
	}
	scratch := make([]int32, 5*n)
	k.label, k.val = scratch[:n], scratch[n:2*n]
	k.size, k.hi, k.loads = scratch[2*n:3*n], scratch[3*n:4*n], scratch[4*n:]
	for i := range k.candidate {
		k.candidate[i] = opts.balanced(g.Instr(i))
	}
	return k
}

// analyse labels G_ind(i)'s connected components (Fig. 6, lines 3–4) and
// reduces each component's Chances (line 5) onto its root.
func (k *kernel) analyse(i int) {
	ind, label, val := k.ind, k.label, k.val
	k.g.FillIndependent(ind, i)
	members := k.members[:0]
	ind.ForEach(func(v int) { members = append(members, int32(v)) })
	k.members = members
	// One ascending sweep unions each node with its in-G_ind reduced
	// predecessors and runs the longest-candidate-path DP: every
	// predecessor comes earlier, so its value is final. v joins as the
	// highest node yet, so its set's root only ever moves down.
	for _, v := range members {
		root, best := v, int32(0)
		label[v] = v
		for _, p := range k.preds[v] {
			if !ind.Has(int(p)) {
				continue
			}
			best = max(best, val[p])
			root = label.Union(root, p)
		}
		if k.candidate[v] {
			best++
		}
		val[v] = best
	}
	if k.levels {
		// The paper's union-find sketch ranks nodes by level from the
		// farthest leaf within G_ind instead: a descending sweep.
		for j := len(members) - 1; j >= 0; j-- {
			v, lvl := members[j], int32(0)
			for _, s := range k.succs[v] {
				if ind.Has(int(s)) {
					lvl = max(lvl, val[s]+1)
				}
			}
			val[v] = lvl
		}
	}
	// Flatten the labels and reduce per root. A root is its component's
	// lowest node, so an ascending scan meets it before the rest.
	k.roots = k.roots[:0]
	for _, v := range members {
		r, x := label.Find(v), val[v]
		label[v] = r
		if r == v {
			k.roots = append(k.roots, v)
			k.size[r], k.hi[r], k.loads[r] = 0, x, 0
		}
		k.size[r]++
		k.hi[r] = max(k.hi[r], x)
		if k.candidate[v] {
			k.loads[r]++
		}
	}
}

// chances is Fig. 6's Chances for the component rooted at r: the most
// candidates on one directed path (ChancesDP), or the paper's union-find
// stand-in, the component's leaf-level range max−min+1. Every component
// holds a sink of G_ind, whose level is 0, so that range is max+1. Both
// are 0 for a component without candidates.
func (k *kernel) chances(r int32) int32 {
	switch {
	case !k.levels:
		return k.hi[r]
	case k.loads[r] == 0:
		return 0
	default:
		return k.hi[r] + 1
	}
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
