package compile

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"bsched/internal/deps"
	"bsched/internal/interp"
	"bsched/internal/ir"
	"bsched/internal/regalloc"
	"bsched/internal/sched"
)

// FuzzParseCompile drives arbitrary text through the full hardened path:
// parse, then compile under every registered policy and "auto", in both
// alias modes, at three work budgets: DefaultBlockBudget, the server's
// "small" tier (1/16 of it) and 1<<16, so the degraded rungs are
// compiled too. The contract under test: the front door never panics —
// every failure is a parse error or a typed *Error — and every success
// yields a program with the same block count. Every compiled block whose
// source the interpreter runs must also be a correct schedule: it leaves
// the same memory as the source, spill slots aside, and its order is a
// topological order of the pass-2 DAG. Extend with
// `go test -fuzz=FuzzParseCompile`.
func FuzzParseCompile(f *testing.F) {
	seeds := []string{
		"func f\nblock b freq=1\nv0 = const 1\nend",
		"func f\nblock b freq=1\nv0 = load a[0]\nv1 = load b[8]\nv2 = add v0, v1\nliveout v2\nend",
		"func f\nblock b freq=2\nv0 = load ?[0]\nstore ?[8], v0\nret\nend",
		"func f\nblock b freq=1\nv0 = load a[0] !lat=30\nv1 = fma v0, v0, v0\nend",
		"func f\nblock b freq=1\nv0 = const 1\nbr v0, b\nend",
		"func g\nblock x freq=0.5\nv0 = const 3\nv1 = load m[v0+0]\nv2 = load m[v1+0]\nv3 = load m[v2+0]\nliveout v3\nend",
		// One symbol through two base registers may alias: the load must
		// stay below the store.
		"func h\nblock y freq=1\nv0 = const 5\nstore a[r2+0], v0\nv1 = load a[r1+0]\nv2 = add v1, v0\nstore b[0], v2\nend",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Seed from the fenced examples in the IR reference so the corpus
	// starts on the documented grammar.
	if doc, err := os.ReadFile("../../docs/IR.md"); err == nil {
		parts := strings.Split(string(doc), "```")
		for i := 1; i < len(parts); i += 2 {
			f.Add(parts[i])
		}
	}
	policies := append(sched.PolicyNames(), sched.PolicyAuto)
	budgets := []int64{DefaultBlockBudget, DefaultBlockBudget / 16, 1 << 16}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		prog, err := ir.Parse(src)
		if err != nil {
			var pe *ir.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("parse error is not a *ParseError: %v (%T)", err, err)
			}
			return
		}
		// The source semantics each compiled block must keep; nil where
		// the interpreter rejects the source.
		blocks := prog.Blocks()
		want := make([]*interp.State, len(blocks))
		for i, b := range blocks {
			if st, err := interp.Run(b.Instrs, nil); err == nil {
				want[i] = st
			}
		}
		for _, policy := range policies {
			for _, alias := range []deps.AliasMode{deps.AliasDisjoint, deps.AliasConservative} {
				for _, bb := range budgets {
					name := fmt.Sprintf("%s/%v/budget=%d", policy, alias, bb)
					res, err := Run(context.Background(), prog, Options{Policy: policy, Alias: alias, BlockBudget: bb})
					if err != nil {
						var ce *Error
						if !errors.As(err, &ce) {
							t.Fatalf("%s: compile error is not a *compile.Error: %v (%T)", name, err, err)
						}
						continue
					}
					if got := len(res.Program.Blocks()); got != len(blocks) {
						t.Fatalf("%s: compiled %d blocks from %d", name, got, len(blocks))
					}
					for i, br := range res.Blocks {
						if want[i] != nil {
							checkOutput(t, name, blocks[i], want[i], br, alias)
						}
					}
				}
			}
		}
	})
}

// checkOutput is FuzzParseCompile's output oracle for one compiled
// block: the final code leaves the source's memory state (spill slots
// aside), and its order is a topological order of the pass-2 DAG,
// rebuilt from Pass2's order and permutation in the same alias mode.
func checkOutput(t *testing.T, name string, src *ir.Block, want *interp.State, br *BlockResult, alias deps.AliasMode) {
	t.Helper()
	got, err := interp.Run(br.Block.Instrs, nil)
	if err != nil {
		t.Fatalf("%s: block %s: interp compiled: %v", name, src.Label, err)
	}
	if !interp.MemEqual(want, got, regalloc.StackSym) {
		t.Fatalf("%s: block %s: compilation changed memory\nsource:\n%s\ncompiled:\n%s", name, src.Label, src, br.Block)
	}
	p2 := br.Pass2
	if p2 == nil {
		t.Fatalf("%s: block %s: no pass-2 result", name, src.Label)
	}
	n := len(p2.Order)
	if len(p2.Perm) != n || len(br.Block.Instrs) != n {
		t.Fatalf("%s: block %s: pass 2 placed %d of %d instructions, final block has %d",
			name, src.Label, len(p2.Perm), n, len(br.Block.Instrs))
	}
	input := make([]*ir.Instr, n)
	pos := make([]int, n)
	for k, i := range p2.Perm {
		if i < 0 || i >= n || input[i] != nil {
			t.Fatalf("%s: block %s: pass-2 permutation %v is not a permutation", name, src.Label, p2.Perm)
		}
		if p2.Order[k] != br.Block.Instrs[k] {
			t.Fatalf("%s: block %s: final order differs from pass 2's at %d", name, src.Label, k)
		}
		input[i] = p2.Order[k]
		pos[i] = k
	}
	g := deps.Build(&ir.Block{Label: br.Block.Label, Instrs: input}, deps.BuildOptions{Alias: alias})
	for i, succs := range g.Succs {
		for _, e := range succs {
			if pos[i] >= pos[e.To] {
				t.Fatalf("%s: block %s: %s edge %d→%d scheduled at %d, %d\ncompiled:\n%s",
					name, src.Label, e.Kind, i, e.To, pos[i], pos[e.To], br.Block)
			}
		}
	}
}
