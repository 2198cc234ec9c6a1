package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/interp"
	"bsched/internal/ir"
	"bsched/internal/workload"
)

// TestRandomSchedulesPreserveSemantics: the central legality property —
// for random blocks under every weighting and both alias modes, the
// scheduled block computes the same memory state and the same final value
// for every register.
func TestRandomSchedulesPreserveSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	weighters := map[string]weighting{
		"trad2":    traditional(2),
		"trad30":   traditional(30),
		"balanced": balanced(core.Options{}),
		"average":  registered(PolicyAverage),
		"ufchance": balanced(core.Options{Chances: core.ChancesUnionFind}),
	}
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(60)
		blk := workload.Random(rng, workload.DefaultRandomParams(n))
		alias := deps.AliasDisjoint
		if trial%2 == 1 {
			alias = deps.AliasConservative
		}
		orig, err := interp.Run(blk.Instrs, nil)
		if err != nil {
			t.Fatalf("trial %d: interp: %v", trial, err)
		}
		regs := collectRegs(blk)
		for wn, w := range weighters {
			t.Run(fmt.Sprintf("t%d/%s", trial, wn), func(t *testing.T) {
				res := schedule(deps.Build(blk, deps.BuildOptions{Alias: alias}), w)
				nb := &ir.Block{Label: blk.Label, Instrs: res.Order}
				if len(nb.Instrs) != len(blk.Instrs) {
					t.Fatalf("lost instructions: %d vs %d", len(nb.Instrs), len(blk.Instrs))
				}
				got, err := interp.Run(nb.Instrs, nil)
				if err != nil {
					t.Fatalf("interp scheduled: %v", err)
				}
				if !interp.MemEqual(orig, got) {
					t.Fatalf("memory state changed\noriginal:\n%s\nscheduled:\n%s", blk, nb)
				}
				if !interp.RegsEqualOn(orig, got, regs) {
					t.Fatalf("final register values changed")
				}
				if res.VNops < 0 {
					t.Fatalf("negative vnops")
				}
			})
		}
	}
}

func collectRegs(b *ir.Block) []ir.Reg {
	seen := map[ir.Reg]bool{}
	var out []ir.Reg
	for _, in := range b.Instrs {
		if d := in.Def(); d != ir.NoReg && !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// TestKernelSchedulesPreserveSemantics runs every workload kernel through
// both schedulers and checks semantic equivalence.
func TestKernelSchedulesPreserveSemantics(t *testing.T) {
	for name, build := range workload.Kernels() {
		for _, param := range []int{1, 3, 6} {
			blk := build(fmt.Sprintf("k_%s_%d", name, param), 1, param)
			orig, err := interp.Run(blk.Instrs, nil)
			if err != nil {
				t.Fatalf("%s(%d): %v", name, param, err)
			}
			for wn, w := range map[string]weighting{"trad": traditional(5), "bal": balanced(core.Options{})} {
				got, err := interp.Run(schedule(deps.Build(blk, deps.BuildOptions{}), w).Order, nil)
				if err != nil {
					t.Fatalf("%s(%d)/%s: %v", name, param, wn, err)
				}
				if !interp.MemEqual(orig, got) {
					t.Errorf("%s(%d)/%s: semantics changed", name, param, wn)
				}
			}
		}
	}
}

// TestBalancedNeverBelowOne: balanced weights are always >= 1 (a load
// still occupies its own issue slot even with zero parallelism).
func TestBalancedNeverBelowOne(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		blk := workload.Random(rng, workload.DefaultRandomParams(6+rng.Intn(50)))
		g := deps.Build(blk, deps.BuildOptions{})
		for i, w := range core.Weights(g, core.Options{}) {
			if w < 1 {
				t.Fatalf("trial %d: weight[%d] = %g < 1", trial, i, w)
			}
		}
	}
}
