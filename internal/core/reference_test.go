package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bsched/internal/bitset"
	"bsched/internal/budget"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/paperdag"
	"bsched/internal/workload"
)

// The reference is a literal transcription of Fig. 6 over the full DAG:
// per instruction, G_ind by set difference (line 3), its components by
// depth-first search (line 4), and per component the longest-candidate-
// path DP or the paper's union-find over leaf levels (line 5). It is
// deliberately slow and allocation-heavy; it exists to pin the weight
// pass's kernel, which works on the closure bit rows instead, bit for
// bit.

// refResult is everything the reference derives for one DAG.
type refResult struct {
	weights []float64
	contrib [][]float64
	explain []Explanation
	// charges is the budget charge sequence, in order.
	charges []int64
}

func reference(g *deps.Graph, opts Options) refResult {
	n := g.N()
	candidate := make([]bool, n)
	res := refResult{weights: make([]float64, n), contrib: make([][]float64, n)}
	for i := 0; i < n; i++ {
		in := g.Instr(i)
		candidate[i] = opts.balanced(in)
		res.weights[i] = 1
		if !candidate[i] && in.KnownLatency > 0 {
			res.weights[i] = in.KnownLatency
		}
		res.contrib[i] = make([]float64, n)
	}
	compCost := int64(2)
	if opts.Chances == ChancesUnionFind {
		compCost = 1
	}
	for i := 0; i < n; i++ { // line 2
		res.charges = append(res.charges, 1)
		ind := g.Independent(i) // line 3
		ex := Explanation{Node: i, Removed: n - ind.Count() - 1}
		slots := opts.issueSlots(g.Instr(i))
		var levels map[int]int
		if opts.Chances == ChancesUnionFind {
			levels = refLevels(g, ind)
		}
		for _, nodes := range refComponents(g, ind) { // line 4
			res.charges = append(res.charges, compCost*int64(len(nodes)))
			c := Component{Nodes: nodes}
			for _, v := range nodes {
				if candidate[v] {
					c.Loads = append(c.Loads, v)
				}
			}
			if opts.Chances == ChancesUnionFind { // line 5
				c.Chances = refUnionFindChances(g, nodes, ind, levels, len(c.Loads) > 0)
			} else {
				c.Chances = refMaxCandidatePath(g, nodes, ind, candidate)
			}
			if c.Chances > 0 {
				c.Credit = slots / float64(c.Chances)
				for _, l := range c.Loads { // lines 6–7
					res.weights[l] += c.Credit
					res.contrib[l][i] += c.Credit
				}
			}
			ex.Components = append(ex.Components, c)
		}
		res.explain = append(res.explain, ex)
	}
	return res
}

// refComponents partitions include into the connected components of the
// DAG's undirected view restricted to include, each ascending, ordered by
// lowest member.
func refComponents(g *deps.Graph, include *bitset.Set) [][]int {
	var comps [][]int
	visited := bitset.New(g.N())
	for start := include.Next(0); start >= 0; start = include.Next(start + 1) {
		if visited.Has(start) {
			continue
		}
		var comp []int
		stack := []int{start}
		visited.Add(start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, es := range [][]deps.Edge{g.Succs[v], g.Preds[v]} {
				for _, e := range es {
					if include.Has(e.To) && !visited.Has(e.To) {
						visited.Add(e.To)
						stack = append(stack, e.To)
					}
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// refMaxCandidatePath is the most candidates on any directed path inside
// comp ∩ include; comp is ascending, hence topological.
func refMaxCandidatePath(g *deps.Graph, comp []int, include *bitset.Set, candidate []bool) int {
	best := 0
	dp := make(map[int]int, len(comp))
	for _, v := range comp {
		m := 0
		for _, e := range g.Preds[v] {
			if d, ok := dp[e.To]; ok && include.Has(e.To) && d > m {
				m = d
			}
		}
		if candidate[v] {
			m++
		}
		dp[v] = m
		best = max(best, m)
	}
	return best
}

// refLevels labels each node of include with its level from the farthest
// leaf within include: leaves are 0, every other node one more than its
// highest included successor.
func refLevels(g *deps.Graph, include *bitset.Set) map[int]int {
	levels := make(map[int]int)
	for v := g.N() - 1; v >= 0; v-- {
		if !include.Has(v) {
			continue
		}
		lvl := 0
		for _, e := range g.Succs[v] {
			if l, ok := levels[e.To]; ok && include.Has(e.To) && l+1 > lvl {
				lvl = l + 1
			}
		}
		levels[v] = lvl
	}
	return levels
}

// refUnionFindChances is the paper's set-union sketch: unite the
// component's nodes along its edges with union by size, carrying each
// set's minimum and maximum level, and report max−min+1 for the one set
// that remains (0 when the component has no candidates).
func refUnionFindChances(g *deps.Graph, comp []int, include *bitset.Set, levels map[int]int, hasCandidate bool) int {
	if !hasCandidate {
		return 0
	}
	parent, size := map[int]int{}, map[int]int{}
	lo, hi := map[int]int{}, map[int]int{}
	for _, v := range comp {
		parent[v], size[v], lo[v], hi[v] = v, 1, levels[v], levels[v]
	}
	find := func(v int) int {
		for parent[v] != v {
			v = parent[v]
		}
		return v
	}
	for _, v := range comp {
		for _, e := range g.Succs[v] {
			if _, ok := parent[e.To]; !ok || !include.Has(e.To) {
				continue
			}
			a, b := find(v), find(e.To)
			if a == b {
				continue
			}
			if size[a] < size[b] {
				a, b = b, a
			}
			parent[b] = a
			size[a] += size[b]
			lo[a], hi[a] = min(lo[a], lo[b]), max(hi[a], hi[b])
		}
	}
	r := find(comp[0])
	if size[r] != len(comp) {
		panic(fmt.Sprintf("reference: component %v is not connected", comp))
	}
	return hi[r] - lo[r] + 1
}

// refConfig is one weight-pass configuration the kernel is pinned under.
type refConfig struct {
	name string
	opts Options
}

// refConfigs returns both Chances methods under one variant of the §6
// extensions, picked by k.
func refConfigs(k int) []refConfig {
	var name string
	var base Options
	switch k % 4 {
	case 0:
		name = "plain"
	case 1:
		name, base.IssueSlots = "superscalar2", SuperscalarIssueSlots(2)
	case 2:
		name, base.Balanced = "fp", func(op ir.Op) bool { return op.IsLoad() || op.IsFP() }
	case 3:
		name = "known-latency" // the DAG's loads carry KnownLatency marks
	}
	dp, uf := base, base
	uf.Chances = ChancesUnionFind
	return []refConfig{{name + "/dp", dp}, {name + "/unionfind", uf}}
}

// TestKernelMatchesReference: property — on seeded random DAGs from n=4
// to n=300 instructions, under both alias modes, both Chances methods and
// the §6 variants, the kernel reproduces the reference bit for bit:
// weights, the contribution matrix, every Explain(i), and the budget's
// Used() and error at limits 1, 10, …, 10⁵.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	const trials = 320
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(60)
		switch {
		case trial == 0:
			n = 4
		case trial == trials-1:
			n = 300
		case trial%16 == 0:
			n = 64 + rng.Intn(237)
		}
		p := workload.RandomParams{
			Instrs:    n,
			PLoad:     0.1 + 0.5*rng.Float64(),
			PStore:    0.3 * rng.Float64(),
			PIndirect: 0.5 * rng.Float64(),
			Syms:      1 + rng.Intn(6),
		}
		blk := workload.Random(rng, p)
		configs := refConfigs(trial / 2)
		if trial/2%4 == 3 {
			for k, in := range blk.Instrs {
				if in.Op.IsLoad() && k%2 == 0 {
					in.KnownLatency = float64(2 + k%3)
				}
			}
		}
		alias := deps.AliasMode(trial % 2)
		g := deps.Build(blk, deps.BuildOptions{Alias: alias})
		for _, c := range configs {
			checkAgainstReference(t, fmt.Sprintf("trial %d (n=%d, %v, %s)", trial, n, alias, c.name), g, c.opts)
		}
	}
	for _, l := range []*paperdag.Labeled{paperdag.Figure1(), paperdag.Figure4(), paperdag.Figure7()} {
		g := deps.Build(l.Block, deps.BuildOptions{})
		for _, c := range refConfigs(0) {
			checkAgainstReference(t, l.Block.Label+" "+c.name, g, c.opts)
		}
	}
	// The blocks the compiler meets: the paper suite, Livermore and
	// IntMix, every kernel at each unroll, and Rich blocks with calls,
	// NoReg sources and !lat= marks, the last few up to 512 long.
	names, blocks := workload.Corpus(kernelCorpusRich)
	for b, blk := range blocks {
		for _, alias := range []deps.AliasMode{deps.AliasDisjoint, deps.AliasConservative} {
			g := deps.Build(blk, deps.BuildOptions{Alias: alias})
			for _, c := range refConfigs(b) {
				checkAgainstReference(t, fmt.Sprintf("%s (%v, %s)", names[b], alias, c.name), g, c.opts)
			}
		}
	}
}

// kernelCorpusRich is how many workload.Rich blocks
// TestKernelMatchesReference takes from workload.Corpus: one at every
// size from 1 to 64 instructions, then a few up to 512.
const kernelCorpusRich = 68

// FuzzKernelReference parses arbitrary IR and runs the weight pass on
// every block, in both alias modes and under both Chances methods,
// requiring what TestKernelMatchesReference requires: the reference's
// weight bits, contributions, Explain(i) for every i, and budget use and
// error at every limit. The corpus starts from FuzzParse's seeds and the
// fenced blocks of docs/IR.md; extend it with
// `go test -fuzz=FuzzKernelReference`.
func FuzzKernelReference(f *testing.F) {
	raw, err := os.ReadFile("../ir/testdata/parse_seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s)
	}
	doc, err := os.ReadFile("../../docs/IR.md")
	if err != nil {
		f.Fatal(err)
	}
	parts := strings.Split(string(doc), "```")
	for i := 1; i < len(parts); i += 2 {
		f.Add(parts[i])
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		prog, err := ir.Parse(src)
		if err != nil {
			return
		}
		for _, b := range prog.Blocks() {
			for _, alias := range []deps.AliasMode{deps.AliasDisjoint, deps.AliasConservative} {
				g := deps.Build(b, deps.BuildOptions{Alias: alias})
				for _, c := range refConfigs(0) {
					checkAgainstReference(t, fmt.Sprintf("%s (%v, %s)", b.Label, alias, c.name), g, c.opts)
				}
			}
		}
	})
}

func checkAgainstReference(t *testing.T, where string, g *deps.Graph, opts Options) {
	t.Helper()
	ref := reference(g, opts)
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s[%d] = %v, reference %v", where, what, i, got[i], want[i])
			}
		}
	}
	w := Weights(g, opts)
	sameBits("weight", w, ref.weights)
	cw, contrib := Contributions(g, opts)
	sameBits("Contributions weight", cw, ref.weights)
	for l := range ref.contrib {
		sameBits(fmt.Sprintf("contrib[%d]", l), contrib[l], ref.contrib[l])
	}
	for i, want := range ref.explain {
		if got := Explain(g, i, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Explain(%d) = %+v, reference %+v", where, i, got, want)
		}
	}
	var total int64
	for _, c := range ref.charges {
		total += c
	}
	for limit := int64(1); limit <= 100000; limit *= 10 {
		kb := budget.New(nil, limit)
		_, kerr := WeightsBudgeted(g, opts, kb)
		rb := budget.New(nil, limit)
		var rerr error
		for _, c := range ref.charges {
			if rerr = rb.Charge(c); rerr != nil {
				break
			}
		}
		if kb.Used() != rb.Used() || fmt.Sprint(kerr) != fmt.Sprint(rerr) {
			t.Fatalf("%s: limit %d: kernel used %d (%v), reference %d (%v)",
				where, limit, kb.Used(), kerr, rb.Used(), rerr)
		}
		if rerr == nil && kb.Used() != total {
			t.Fatalf("%s: limit %d: kernel charged %d, reference %d", where, limit, kb.Used(), total)
		}
	}
}
