package deps

import (
	"strings"
	"testing"

	"bsched/internal/ir"
)

func build(t *testing.T, src string, mode AliasMode) *Graph {
	t.Helper()
	b, err := ir.ParseBlock(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Build(b, BuildOptions{Alias: mode})
}

// hasEdge reports whether from→to exists with the given kind.
func hasEdge(g *Graph, from, to int, kind EdgeKind) bool {
	for _, e := range g.Succs[from] {
		if e.To == to && e.Kind == kind {
			return true
		}
	}
	return false
}

func anyEdge(g *Graph, from, to int) bool {
	for _, e := range g.Succs[from] {
		if e.To == to {
			return true
		}
	}
	return false
}

func TestTrueDependence(t *testing.T) {
	g := build(t, `
		v0 = const 1
		v1 = addi v0, 2
	`, AliasDisjoint)
	if !hasEdge(g, 0, 1, True) {
		t.Errorf("missing true edge 0->1")
	}
}

func TestAntiAndOutputDependences(t *testing.T) {
	g := build(t, `
		v0 = const 1
		v1 = addi v0, 2
		v0 = const 3
	`, AliasDisjoint)
	if !hasEdge(g, 1, 2, Anti) {
		t.Errorf("missing anti edge 1->2 (v0 read then rewritten)")
	}
	if !hasEdge(g, 0, 2, Output) {
		t.Errorf("missing output edge 0->2 (v0 written twice)")
	}
}

func TestLoadBaseDependence(t *testing.T) {
	g := build(t, `
		v0 = const 8
		v1 = load a[v0+0]
	`, AliasDisjoint)
	if !hasEdge(g, 0, 1, True) {
		t.Errorf("missing address dependence")
	}
}

func TestMemDependences(t *testing.T) {
	g := build(t, `
		v0 = const 0
		v1 = load a[v0+0]
		store a[v0+0], v1
		v2 = load a[v0+8]
		store a[v0+8], v2
		store a[v0+8], v1
	`, AliasDisjoint)
	// load(1) -> store(2): same base version, same offset — must alias.
	if !hasEdge(g, 1, 2, Mem) {
		t.Errorf("missing load->store mem edge")
	}
	// store(2) -> load(3): same base version, DIFFERENT constant offset —
	// exactly disjoint (constant-offset disambiguation).
	if anyEdge(g, 2, 3) {
		t.Errorf("same-base distinct-offset references must not alias")
	}
	// store(4) -> store(5): same base version, same offset — output
	// ordering.
	if !hasEdge(g, 4, 5, Mem) {
		t.Errorf("missing store->store mem edge")
	}
	// Loads never depend on loads.
	if anyEdge(g, 1, 3) {
		t.Errorf("load->load edge must not exist")
	}
}

func TestMemDependenceBaseRedefined(t *testing.T) {
	// Once the base register is redefined, offset disambiguation must be
	// abandoned: the two stores could hit the same location.
	g := build(t, `
		v0 = const 0
		store a[v0+0], v0
		v0 = const 8
		store a[v0+8], v0
	`, AliasDisjoint)
	if !hasEdge(g, 1, 3, Mem) {
		t.Errorf("stores across a base redefinition must alias conservatively")
	}
}

func TestMemDependenceDifferentBases(t *testing.T) {
	// Different base registers within one symbol stay conservative.
	g := build(t, `
		v0 = const 0
		v1 = const 64
		store a[v0+0], v0
		v2 = load a[v1+0]
	`, AliasDisjoint)
	if !hasEdge(g, 2, 3, Mem) {
		t.Errorf("different bases within a symbol must alias conservatively")
	}
}

func TestAliasModes(t *testing.T) {
	src := `
		v0 = const 0
		store a[v0+0], v0
		v1 = load b[v0+0]
	`
	if g := build(t, src, AliasDisjoint); hasEdge(g, 1, 2, Mem) {
		t.Errorf("disjoint mode: distinct symbols must not alias")
	}
	if g := build(t, src, AliasConservative); !hasEdge(g, 1, 2, Mem) {
		t.Errorf("conservative mode: distinct symbols must alias")
	}
}

func TestUnknownSymbolAliasesEverything(t *testing.T) {
	g := build(t, `
		v0 = const 0
		store ?[0], v0
		v1 = load b[v0+0]
	`, AliasDisjoint)
	if !hasEdge(g, 1, 2, Mem) {
		t.Errorf("unknown symbol must alias even in disjoint mode")
	}
}

func TestSpillSlotsDisambiguateByOffset(t *testing.T) {
	g := build(t, `
		v0 = const 0
		store $stack[8], v0
		v1 = load $stack[16]
		v2 = load $stack[8]
	`, AliasDisjoint)
	if anyEdge(g, 1, 2) {
		t.Errorf("distinct absolute slots must not conflict")
	}
	if !hasEdge(g, 1, 3, Mem) {
		t.Errorf("same absolute slot must conflict")
	}
}

func TestTerminatorControlEdges(t *testing.T) {
	g := build(t, `
		v0 = const 1
		v1 = const 2
		ret
	`, AliasDisjoint)
	if !hasEdge(g, 0, 2, Control) || !hasEdge(g, 1, 2, Control) {
		t.Errorf("terminator must depend on every instruction")
	}
}

func TestCallBarrier(t *testing.T) {
	g := build(t, `
		v0 = const 1
		call helper
		v1 = const 2
	`, AliasDisjoint)
	if !hasEdge(g, 0, 1, Control) {
		t.Errorf("call must follow prior instructions")
	}
	if !hasEdge(g, 1, 2, Control) {
		t.Errorf("instructions must not move above a call")
	}
}

func TestClosures(t *testing.T) {
	g := build(t, `
		v0 = const 1
		v1 = addi v0, 1
		v2 = addi v1, 1
		v3 = const 9
	`, AliasDisjoint)
	if s := g.SuccClosure(0); !s.Has(1) || !s.Has(2) || s.Has(3) || s.Has(0) {
		t.Errorf("SuccClosure(0) = %v", s)
	}
	if p := g.PredClosure(2); !p.Has(0) || !p.Has(1) || p.Has(3) {
		t.Errorf("PredClosure(2) = %v", p)
	}
	ind := g.Independent(1)
	if !ind.Has(3) || ind.Has(0) || ind.Has(1) || ind.Has(2) {
		t.Errorf("Independent(1) = %v", ind)
	}
}

func TestCriticalPathLen(t *testing.T) {
	g := build(t, `
		v0 = const 1
		v1 = addi v0, 1
		v2 = addi v1, 1
		v3 = const 2
	`, AliasDisjoint)
	if got := g.CriticalPathLen(); got != 3 {
		t.Errorf("CriticalPathLen = %d, want 3", got)
	}
}

func TestEdgesAlwaysForward(t *testing.T) {
	// Build guards against backward edges with a panic; a pathological
	// but valid block must still construct.
	g := build(t, `
		v0 = const 0
		v1 = load a[v0+0]
		store a[v0+0], v1
		v1 = load a[v0+8]
		store b[v0+0], v1
		ret
	`, AliasConservative)
	for i, es := range g.Succs {
		for _, e := range es {
			if e.To <= i {
				t.Fatalf("backward edge %d->%d", i, e.To)
			}
		}
	}
	if g.NumEdges() == 0 {
		t.Errorf("expected edges")
	}
}

func TestDotOutput(t *testing.T) {
	g := build(t, `
		v0 = load a[0]
		v1 = addi v0, 1
	`, AliasDisjoint)
	dot := g.Dot()
	for _, want := range []string{"digraph", "ellipse", "n0 -> n1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}
