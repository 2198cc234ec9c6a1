package workload

import (
	"testing"

	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/interp"
	"bsched/internal/ir"
)

func TestFuseValidAndRenamed(t *testing.T) {
	a := Gather("fa", 1, 3)
	b := Stencil3("fb", 1, 2)
	fused := Fuse("f", 2.5, a, b)
	if err := ir.ValidateBlock(fused); err != nil {
		t.Fatalf("invalid fused block: %v", err)
	}
	if fused.Freq != 2.5 || fused.Label != "f" {
		t.Errorf("metadata wrong: %+v", fused)
	}
	// Exactly one terminator, at the end.
	for i, in := range fused.Instrs {
		if in.Op.IsTerminator() && i != len(fused.Instrs)-1 {
			t.Errorf("terminator at %d", i)
		}
	}
	// Size: both parts minus their terminators plus one ret.
	want := len(a.Instrs) + len(b.Instrs) - 2 + 1
	if len(fused.Instrs) != want {
		t.Errorf("fused length %d, want %d", len(fused.Instrs), want)
	}
	// Loads preserved.
	if fused.NumLoads() != a.NumLoads()+b.NumLoads() {
		t.Errorf("loads %d, want %d", fused.NumLoads(), a.NumLoads()+b.NumLoads())
	}
	// Define-before-use still holds (the allocator contract).
	defined := map[ir.Reg]bool{}
	for idx, in := range fused.Instrs {
		for _, u := range in.AppendUses(nil) {
			if u.IsVirt() && !defined[u] {
				t.Fatalf("instr %d uses %v before def", idx, u)
			}
		}
		if d := in.Def(); d != ir.NoReg {
			defined[d] = true
		}
	}
}

func TestFusePreservesSemantics(t *testing.T) {
	// Parts with distinct symbols: executing the fused block must write
	// the union of the parts' memory effects.
	a := Copy("ca", 1, 3)
	b := Dot("da", 1, 2)
	sa, err := interp.Run(a.Instrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := interp.Run(b.Instrs, sa)
	if err != nil {
		t.Fatal(err)
	}
	fused := Fuse("f", 1, a, b)
	sf, err := interp.Run(fused.Instrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !interp.MemEqual(sb, sf) {
		t.Errorf("fusion changed memory semantics")
	}
}

func TestFuseIncreasesLLP(t *testing.T) {
	// The point of enlargement: each part's loads see more parallelism
	// in the fused block than in their own.
	part := Recurrence("p", 1, 4)
	fused := Fuse("f", 1, Recurrence("p1", 1, 4), Recurrence("p2", 1, 4))
	mean := func(b *ir.Block) float64 {
		g := deps.Build(b, deps.BuildOptions{})
		llp := core.LoadLevelParallelism(g)
		s := 0.0
		for _, v := range llp {
			s += float64(v)
		}
		return s / float64(len(llp))
	}
	if mean(fused) <= mean(part) {
		t.Errorf("fused LLP %.1f not above part LLP %.1f", mean(fused), mean(part))
	}
}

func TestFusePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Fuse() did not panic")
		}
	}()
	Fuse("f", 1)
}
