package deps

import (
	"fmt"
	"math/rand"
	"testing"

	"bsched/internal/bitset"
	"bsched/internal/ir"
	"bsched/internal/workload"
)

// bfsReach computes forward reachability from node i by breadth-first
// search — the reference the bitset closures are checked against.
func bfsReach(g *Graph, i int, forward bool) *bitset.Set {
	out := bitset.New(g.N())
	queue := []int{i}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		edges := g.Succs[v]
		if !forward {
			edges = g.Preds[v]
		}
		for _, e := range edges {
			if !out.Has(e.To) {
				out.Add(e.To)
				queue = append(queue, e.To)
			}
		}
	}
	return out
}

// TestClosuresMatchBFS: property — the DP-computed transitive closures
// equal BFS reachability on random blocks under both alias modes.
func TestClosuresMatchBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		blk := workload.Random(rng, workload.DefaultRandomParams(10+rng.Intn(50)))
		mode := AliasDisjoint
		if trial%2 == 1 {
			mode = AliasConservative
		}
		g := Build(blk, BuildOptions{Alias: mode})
		for i := 0; i < g.N(); i++ {
			if !g.SuccClosure(i).Equal(bfsReach(g, i, true)) {
				t.Fatalf("trial %d: SuccClosure(%d) diverges from BFS", trial, i)
			}
			if !g.PredClosure(i).Equal(bfsReach(g, i, false)) {
				t.Fatalf("trial %d: PredClosure(%d) diverges from BFS", trial, i)
			}
		}
	}
}

// TestIndependentIsComplement: property — G_ind(i) is exactly the
// complement of {i} ∪ Pred(i) ∪ Succ(i).
func TestIndependentIsComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 20; trial++ {
		blk := workload.Random(rng, workload.DefaultRandomParams(10+rng.Intn(40)))
		g := Build(blk, BuildOptions{})
		for i := 0; i < g.N(); i++ {
			ind := g.Independent(i)
			for j := 0; j < g.N(); j++ {
				excluded := j == i || g.PredClosure(i).Has(j) || g.SuccClosure(i).Has(j)
				if ind.Has(j) == excluded {
					t.Fatalf("trial %d: Independent(%d) wrong at %d", trial, i, j)
				}
			}
		}
	}
}

// TestReductionIsMinimalAndComplete: property — the transitive reduction
// keeps exactly the edges no longer path implies: each kept edge is a
// real dependence not reachable through i's other kept successors, every
// dropped dependence is, and the predecessor lists are the ascending
// transpose of the successor lists.
func TestReductionIsMinimalAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 30; trial++ {
		blk := workload.Random(rng, workload.DefaultRandomParams(10+rng.Intn(60)))
		mode := AliasDisjoint
		if trial%2 == 1 {
			mode = AliasConservative
		}
		g := Build(blk, BuildOptions{Alias: mode})
		checkReduction(t, g)
	}
}

// TestReductionUnsortedEdges: the reduction does not rely on Build's edge
// order — a hand-built graph with unsorted, duplicated successor lists
// reduces the same way.
func TestReductionUnsortedEdges(t *testing.T) {
	blk := &ir.Block{Label: "hand"}
	for i := 0; i < 5; i++ {
		blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpNop, Seq: i})
	}
	g := &Graph{Block: blk, Succs: make([][]Edge, 5), Preds: make([][]Edge, 5)}
	add := func(from, to int, kind EdgeKind) {
		g.Succs[from] = append(g.Succs[from], Edge{To: to, Kind: kind})
		g.Preds[to] = append(g.Preds[to], Edge{To: from, Kind: kind})
	}
	// 0→4 and 0→2 are implied by 0→1→2→4; 3 hangs off 1.
	add(0, 4, Control)
	add(0, 2, True)
	add(0, 1, True)
	add(0, 2, Mem)
	add(1, 3, Anti)
	add(1, 2, True)
	add(2, 4, True)
	checkReduction(t, g)
	preds, succs := g.Reduction()
	if fmt.Sprint(succs) != "[[1] [2 3] [4] [] []]" || fmt.Sprint(preds) != "[[] [0] [1] [1] [2]]" {
		t.Errorf("reduction succs %v preds %v", succs, preds)
	}
}

func checkReduction(t *testing.T, g *Graph) {
	t.Helper()
	preds, succs := g.Reduction()
	n := g.N()
	direct := make([]map[int]bool, n)
	for i := range direct {
		direct[i] = map[int]bool{}
		for _, e := range g.Succs[i] {
			direct[i][e.To] = true
		}
	}
	transposed := make([][]int32, n)
	for i := 0; i < n; i++ {
		for k, v := range succs[i] {
			if k > 0 && succs[i][k-1] >= v {
				t.Fatalf("succs[%d] = %v not strictly ascending", i, succs[i])
			}
			if !direct[i][int(v)] {
				t.Fatalf("kept edge %d->%d is not a dependence", i, v)
			}
			transposed[v] = append(transposed[v], int32(i))
		}
		// What i reaches through each kept successor other than v.
		for _, v := range succs[i] {
			via := bitset.New(n)
			for _, w := range succs[i] {
				if w != v {
					via.Add(int(w))
					via.Union(g.SuccClosure(int(w)))
				}
			}
			if via.Has(int(v)) {
				t.Fatalf("kept edge %d->%d is implied by a longer path", i, v)
			}
		}
		reach := bitset.New(n)
		for _, w := range succs[i] {
			reach.Add(int(w))
			reach.Union(g.SuccClosure(int(w)))
		}
		if !reach.Equal(g.SuccClosure(i)) {
			t.Fatalf("reduction from %d reaches %v, closure is %v", i, reach, g.SuccClosure(i))
		}
	}
	if fmt.Sprint(transposed) != fmt.Sprint(preds) {
		t.Fatalf("preds %v are not the transpose of succs (%v)", preds, transposed)
	}
}
