package sched

import (
	"context"
	"testing"

	"bsched/internal/budget"
	"bsched/internal/deps"
	"bsched/internal/ir"
)

// FuzzPolicySchedule drives arbitrary text through every registered
// policy: parse, build each block's code DAG, compute the policy's
// weights under a work budget, and list-schedule. The contract under
// test is the portfolio's safety floor — no policy may panic on hostile
// input, and every successful schedule must be a complete topological
// order of its DAG. Extend with `go test -fuzz=FuzzPolicySchedule`.
func FuzzPolicySchedule(f *testing.F) {
	seeds := []string{
		"func f\nblock b freq=1\nv0 = const 1\nend",
		"func f\nblock b freq=1\nv0 = load a[0]\nv1 = load b[8]\nv2 = add v0, v1\nliveout v2\nend",
		"func f\nblock b freq=1\nv0 = load a[0] !lat=30\nv1 = fma v0, v0, v0\nend",
		"func g\nblock x freq=0.5\nv0 = const 3\nv1 = load m[v0+0]\nv2 = load m[v1+0]\nv3 = load m[v2+0]\nliveout v3\nend",
		"func f\nblock b freq=2\nv0 = load ?[0]\nstore ?[8], v0\nret\nend",
		"func f\nblock b freq=1\nv0 = load a[0] !lat=1e300\nv1 = addi v0, 1\nend",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		prog, err := ir.Parse(src)
		if err != nil {
			return
		}
		for _, b := range prog.Blocks() {
			g := deps.Build(b, deps.BuildOptions{})
			n := g.N()
			for _, name := range PolicyNames() {
				p, _ := PolicyByName(name)
				w, err := p.Weights(g, PolicyConfig{}, budget.New(context.Background(), 1<<16))
				if err != nil {
					continue // budget tripped: the ladder's business, not ours
				}
				if len(w) != n {
					t.Fatalf("%s: %d weights for %d nodes", name, len(w), n)
				}
				res, err := Schedule(g, w, Heuristics{}, budget.New(context.Background(), 1<<20))
				if err != nil {
					continue
				}
				// Valid topological order: Perm a permutation, every DAG
				// edge pointing forward.
				if len(res.Order) != n || len(res.Perm) != n {
					t.Fatalf("%s: scheduled %d/%d entries for %d nodes", name, len(res.Order), len(res.Perm), n)
				}
				pos := make([]int, n)
				seen := make([]bool, n)
				for k, node := range res.Perm {
					if node < 0 || node >= n || seen[node] {
						t.Fatalf("%s: Perm not a permutation at %d: %v", name, k, res.Perm)
					}
					seen[node] = true
					pos[node] = k
				}
				for from := 0; from < n; from++ {
					for _, e := range g.Succs[from] {
						if pos[from] >= pos[e.To] {
							t.Fatalf("%s: edge %d→%d scheduled backwards", name, from, e.To)
						}
					}
				}
			}
		}
	})
}
