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

// TestClosuresUnsortedEdges: the closures do not rely on Build's edge
// order — on a hand-built graph with unsorted, duplicated edge lists
// they still equal BFS reachability.
func TestClosuresUnsortedEdges(t *testing.T) {
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
	pred, succ := g.Closures()
	for i := 0; i < g.N(); i++ {
		if !succ[i].Equal(bfsReach(g, i, true)) || !pred[i].Equal(bfsReach(g, i, false)) {
			t.Errorf("node %d: Succ %v Pred %v, BFS %v and %v",
				i, &succ[i], &pred[i], bfsReach(g, i, true), bfsReach(g, i, false))
		}
	}
	if got := fmt.Sprint(&succ[0], &pred[4]); got != "{1, 2, 3, 4} {0, 1, 2}" {
		t.Errorf("Succ(0) Pred(4) = %s", got)
	}
}
