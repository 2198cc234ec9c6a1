package paperdag

import (
	"testing"

	"bsched/internal/deps"
	"bsched/internal/ir"
)

func TestFiguresAreValidBlocks(t *testing.T) {
	for _, l := range []*Labeled{Figure1(), Figure4(), Figure7()} {
		if err := ir.ValidateBlock(l.Block); err != nil {
			t.Errorf("%s: %v", l.Block.Label, err)
		}
		if len(l.Names) != len(l.Block.Instrs) {
			t.Errorf("%s: %d names for %d instrs", l.Block.Label, len(l.Names), len(l.Block.Instrs))
		}
		for i, in := range l.Block.Instrs {
			if in.Seq != i {
				t.Errorf("%s: Seq not set at %d", l.Block.Label, i)
			}
		}
	}
}

func TestFigure1Structure(t *testing.T) {
	l := Figure1()
	g := deps.Build(l.Block, deps.BuildOptions{})
	idx := index(l)
	// L0 -> L1 -> X4 chain; X0..X3 isolated.
	if !g.SuccClosure(idx["L0"]).Has(idx["L1"]) {
		t.Errorf("L1 must depend on L0")
	}
	if !g.SuccClosure(idx["L1"]).Has(idx["X4"]) {
		t.Errorf("X4 must depend on L1")
	}
	for _, x := range []string{"X0", "X1", "X2", "X3"} {
		if g.SuccClosure(idx[x]).Count() != 0 || g.PredClosure(idx[x]).Count() != 0 {
			t.Errorf("%s must be independent", x)
		}
	}
}

func TestFigure4Structure(t *testing.T) {
	l := Figure4()
	g := deps.Build(l.Block, deps.BuildOptions{})
	idx := index(l)
	if g.SuccClosure(idx["L0"]).Has(idx["L1"]) || g.SuccClosure(idx["L1"]).Has(idx["L0"]) {
		t.Errorf("L0 and L1 must be independent")
	}
	for _, ld := range []string{"L0", "L1"} {
		if !g.SuccClosure(idx[ld]).Has(idx["X4"]) {
			t.Errorf("X4 must consume %s", ld)
		}
	}
}

// TestFigure7Structure pins the documented shape of the Figure 7
// reconstruction; the component analysis §3 describes for i = X1 is
// pinned on core.Explain (core's TestExplainFigure7X1).
func TestFigure7Structure(t *testing.T) {
	l := Figure7()
	g := deps.Build(l.Block, deps.BuildOptions{})
	idx := index(l)
	reaches := func(from, to string) bool { return g.SuccClosure(idx[from]).Has(idx[to]) }
	// L2 feeds X1, which feeds nothing: L2 is the only node G_ind(X1)
	// loses besides X1 itself.
	if !reaches("L2", "X1") || g.SuccClosure(idx["X1"]).Count() != 0 || g.PredClosure(idx["X1"]).Count() != 1 {
		t.Errorf("X1 must depend on L2 alone and have no successors")
	}
	if g.SuccClosure(idx["L1"]).Count() != 0 || g.PredClosure(idx["L1"]).Count() != 0 {
		t.Errorf("L1 must be isolated")
	}
	// L3→L4→L6 is a serial load chain; X2 combines L5 and L6; X3→X4→X5
	// is a load-free chain.
	for _, e := range [][2]string{{"L3", "L4"}, {"L4", "L6"}, {"L5", "X2"}, {"L6", "X2"}, {"X3", "X4"}, {"X4", "X5"}} {
		if !reaches(e[0], e[1]) {
			t.Errorf("%s must reach %s", e[0], e[1])
		}
	}
	if reaches("L5", "L6") || reaches("L6", "L5") {
		t.Errorf("L5 and L6 must be independent")
	}
}

func TestNameFallback(t *testing.T) {
	l := Figure1()
	foreign := &ir.Instr{Op: ir.OpNop}
	if got := l.Name(foreign); got != "nop" {
		t.Errorf("fallback name = %q", got)
	}
	seq := l.Sequence(l.Block.Instrs)
	if seq[0] != "L0" || seq[len(seq)-1] != "X4" {
		t.Errorf("sequence = %v", seq)
	}
}

func index(l *Labeled) map[string]int {
	out := make(map[string]int)
	for i, in := range l.Block.Instrs {
		out[l.Name(in)] = i
	}
	return out
}
