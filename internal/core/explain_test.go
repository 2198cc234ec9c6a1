package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bsched/internal/bitset"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/paperdag"
	"bsched/internal/workload"
)

// TestExplainFigure7X1 pins the §3 narrative via the Explain API: for
// i=X1 there are three components with Chances 1, 3 and 0.
func TestExplainFigure7X1(t *testing.T) {
	l := paperdag.Figure7()
	g := deps.Build(l.Block, deps.BuildOptions{})
	x1 := -1
	for i, in := range l.Block.Instrs {
		if l.Name(in) == "X1" {
			x1 = i
		}
	}
	ex := Explain(g, x1, Options{})
	if len(ex.Components) != 3 {
		t.Fatalf("got %d components, want 3", len(ex.Components))
	}
	if ex.Removed != 1 { // only L2 is a predecessor; X1 has no successors
		t.Errorf("Removed = %d, want 1", ex.Removed)
	}
	var chances []int
	for _, c := range ex.Components {
		chances = append(chances, c.Chances)
	}
	counts := map[int]int{}
	for _, c := range chances {
		counts[c]++
	}
	if counts[1] != 1 || counts[3] != 1 || counts[0] != 1 {
		t.Errorf("component chances = %v, want one each of 0, 1, 3", chances)
	}
	for _, c := range ex.Components {
		for _, v := range c.Nodes {
			if l.Name(l.Block.Instrs[v]) == "L2" {
				t.Errorf("L2 is X1's predecessor and must not be in G_ind(X1): %+v", c)
			}
		}
		switch c.Chances {
		case 1:
			if len(c.Nodes) != 1 || len(c.Loads) != 1 || l.Name(l.Block.Instrs[c.Nodes[0]]) != "L1" || c.Credit != 1 {
				t.Errorf("L1 component wrong: %+v", c)
			}
		case 3:
			if len(c.Loads) != 4 || c.Credit != 1.0/3 {
				t.Errorf("L3-L6 component wrong: %+v", c)
			}
		case 0:
			if len(c.Loads) != 0 || c.Credit != 0 {
				t.Errorf("load-free component wrong: %+v", c)
			}
		}
	}
}

// TestExplainConsistentWithContributions: summing Explain's credits over
// all instructions reproduces the contribution matrix.
func TestExplainConsistentWithContributions(t *testing.T) {
	l := paperdag.Figure7()
	g := deps.Build(l.Block, deps.BuildOptions{})
	_, contrib := Contributions(g, Options{})
	for i := 0; i < g.N(); i++ {
		ex := Explain(g, i, Options{})
		got := make([]float64, g.N())
		for _, c := range ex.Components {
			for _, load := range c.Loads {
				got[load] += c.Credit
			}
		}
		for load := 0; load < g.N(); load++ {
			if diff := got[load] - contrib[load][i]; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("i=%d load=%d: explain %g vs contributions %g", i, load, got[load], contrib[load][i])
			}
		}
	}
}

func TestExplainFormat(t *testing.T) {
	l := paperdag.Figure1()
	g := deps.Build(l.Block, deps.BuildOptions{})
	out := Explain(g, 1, Options{}).Format(nil) // node 1 is X0
	for _, want := range []string{"instruction #1", "chances", "component"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

// explainBlock builds src's DAG and explains instruction i.
func explainBlock(t *testing.T, src string, i int, opts Options) Explanation {
	t.Helper()
	b, err := ir.ParseBlock(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Explain(deps.Build(b, deps.BuildOptions{}), i, opts)
}

// componentSummary renders an explanation's components as
// "[nodes]:chances" in order.
func componentSummary(ex Explanation) string {
	var parts []string
	for _, c := range ex.Components {
		parts = append(parts, fmt.Sprintf("%v:%d", c.Nodes, c.Chances))
	}
	return strings.Join(parts, " ")
}

// TestComponents pins G_ind's components, in ascending order of their
// lowest node: two separate chains, singletons, and two partial sets that
// a later node joins into one.
func TestComponents(t *testing.T) {
	cases := []struct {
		name, src string
		i         int
		want      string
	}{{
		name: "two-chains",
		src: `
			v0 = const 1
			v1 = addi v0, 1
			v2 = const 2
			v3 = addi v2, 1
			v4 = const 5`,
		i:    4, // excludes only node 4
		want: "[0 1]:0 [2 3]:0",
	}, {
		name: "singletons",
		src: `
			v0 = const 0
			v1 = const 1
			v2 = const 2
			v3 = const 3
			v4 = const 4`,
		i:    0,
		want: "[1]:0 [2]:0 [3]:0 [4]:0",
	}, {
		name: "joined-late",
		src: `
			v0 = const 0
			v1 = const 1
			v2 = addi v0, 1
			v3 = addi v1, 1
			v4 = add v2, v3
			v5 = const 5`,
		i:    5, // {0,2} and {1,3} stay apart until node 4 joins them
		want: "[0 1 2 3 4]:0",
	}}
	for _, c := range cases {
		if got := componentSummary(explainBlock(t, c.src, c.i, Options{})); got != c.want {
			t.Errorf("%s: components %s, want %s", c.name, got, c.want)
		}
	}
}

// TestMaxLoadPath: a component's Chances is the most loads on one
// directed path — 2 for a dependent pair, 1 for a lone load.
func TestMaxLoadPath(t *testing.T) {
	ex := explainBlock(t, `
		v0 = load a[0]
		v1 = load a[v0+0]
		v2 = load b[0]
		v3 = const 1`, 3, Options{})
	if got := componentSummary(ex); got != "[0 1]:2 [2]:1" {
		t.Errorf("components %s, want [0 1]:2 [2]:1", got)
	}
}

// TestLevelsFromLeaves: under ChancesUnionFind a component's Chances is
// its leaf-level range max−min+1. The chain load→addi→addi has levels
// 2, 1, 0, so it counts 3 although only one load lies on it; a lone load
// is its own leaf, range 1.
func TestLevelsFromLeaves(t *testing.T) {
	src := `
		v0 = load a[0]
		v1 = addi v0, 1
		v2 = addi v1, 1
		v3 = load b[0]
		v4 = const 9`
	uf := explainBlock(t, src, 4, Options{Chances: ChancesUnionFind})
	if got := componentSummary(uf); got != "[0 1 2]:3 [3]:1" {
		t.Errorf("union-find components %s, want [0 1 2]:3 [3]:1", got)
	}
	dp := explainBlock(t, src, 4, Options{})
	if got := componentSummary(dp); got != "[0 1 2]:1 [3]:1" {
		t.Errorf("DP components %s, want [0 1 2]:1 [3]:1", got)
	}
}

// TestLevelTracking: under ChancesUnionFind a component's leaf-level range
// spans every branch joined into it. The chain v0→v1→v2→v3 has levels
// 3, 2, 1, 0 and the branch v4 off v0 is a second leaf at level 0, so the
// joined component's range max−min+1 is 4; the lone load is range 1.
func TestLevelTracking(t *testing.T) {
	src := `
		v0 = load a[0]
		v1 = addi v0, 1
		v2 = addi v1, 1
		v3 = addi v2, 1
		v4 = addi v0, 2
		v5 = load b[0]
		v6 = const 9`
	uf := explainBlock(t, src, 6, Options{Chances: ChancesUnionFind})
	if got := componentSummary(uf); got != "[0 1 2 3 4]:4 [5]:1" {
		t.Errorf("union-find components %s, want [0 1 2 3 4]:4 [5]:1", got)
	}
}

// TestComponentsPartition: property — for every instruction of random
// blocks, Explain's components partition G_ind(i) exactly, come in
// ascending order of their lowest node, list their nodes ascending, and
// name exactly the loads among them.
func TestComponentsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 20; trial++ {
		blk := workload.Random(rng, workload.DefaultRandomParams(10+rng.Intn(40)))
		g := deps.Build(blk, deps.BuildOptions{})
		for i := 0; i < g.N(); i++ {
			ex := Explain(g, i, Options{})
			seen := bitset.New(g.N())
			prevRoot := -1
			for _, c := range ex.Components {
				if c.Nodes[0] <= prevRoot {
					t.Fatalf("trial %d i=%d: components out of order", trial, i)
				}
				prevRoot = c.Nodes[0]
				var loads []int
				for k, v := range c.Nodes {
					if k > 0 && c.Nodes[k-1] >= v {
						t.Fatalf("trial %d i=%d: component %v not ascending", trial, i, c.Nodes)
					}
					if seen.Has(v) {
						t.Fatalf("trial %d i=%d: node %d in two components", trial, i, v)
					}
					seen.Add(v)
					if g.IsLoad(v) {
						loads = append(loads, v)
					}
				}
				if fmt.Sprint(loads) != fmt.Sprint(c.Loads) {
					t.Fatalf("trial %d i=%d: loads %v, want %v", trial, i, c.Loads, loads)
				}
			}
			if !seen.Equal(g.Independent(i)) {
				t.Fatalf("trial %d i=%d: components cover %v, G_ind is %v", trial, i, seen, g.Independent(i))
			}
			if ex.Removed != g.N()-seen.Count()-1 {
				t.Fatalf("trial %d i=%d: Removed = %d", trial, i, ex.Removed)
			}
		}
	}
}
