package deps

// This file keeps the dependence builder the package had before its
// flat-array rewrite (per-register maps, a set of seen edges, one
// append per edge) as a test-only reference, and checks the package's
// builder against it block by block and in both alias modes: the same
// Succs and Preds, order included, the same budget charges and the
// same errors. The reference is the old code verbatim, with the since
// removed Instr.Uses inlined as refUses.

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bsched/internal/budget"
	"bsched/internal/ir"
	"bsched/internal/workload"
)

// refUses is the old Instr.Uses: every register read, the address base
// of a memory operation last, in a fresh slice.
func refUses(in *ir.Instr) []ir.Reg {
	out := make([]ir.Reg, 0, len(in.Srcs)+1)
	for _, s := range in.Srcs {
		if s != ir.NoReg {
			out = append(out, s)
		}
	}
	if in.Op.IsMem() && in.Base != ir.NoReg {
		out = append(out, in.Base)
	}
	return out
}

// refBuildBudgeted is Build under a work budget: construction charges one
// unit per instruction, one per prior memory reference considered by the
// disambiguator (the quadratic term on store-heavy blocks) and one per
// control edge. It returns the budget's error as soon as the cap or the
// budget's context trips; a nil budget means unlimited.
func refBuildBudgeted(b *ir.Block, opts BuildOptions, wb *budget.Budget) (*Graph, error) {
	n := len(b.Instrs)
	g := &Graph{
		Block: b,
		Succs: make([][]Edge, n),
		Preds: make([][]Edge, n),
	}

	type edgeKey struct {
		from, to int
		kind     EdgeKind
	}
	seen := make(map[edgeKey]bool)
	addEdge := func(from, to int, kind EdgeKind) {
		if from == to || from < 0 || to < 0 {
			return
		}
		if from > to {
			panic(fmt.Sprintf("deps: backward edge %d->%d", from, to))
		}
		k := edgeKey{from, to, kind}
		if seen[k] {
			return
		}
		seen[k] = true
		g.Succs[from] = append(g.Succs[from], Edge{To: to, Kind: kind})
		g.Preds[to] = append(g.Preds[to], Edge{To: from, Kind: kind})
	}

	lastDef := make(map[ir.Reg]int)
	lastUses := make(map[ir.Reg][]int)
	// memOps records previous memory references with the version of their
	// base register (the defining instruction at the time) so that
	// references off the same unmodified base with distinct constant
	// offsets disambiguate exactly.
	var memOps []refMemRef
	lastBarrier := -1

	for j, in := range b.Instrs {
		cost := int64(1)
		if in.Op.IsMem() {
			cost += int64(len(memOps))
		}
		if in.Op.IsTerminator() || in.Op == ir.OpCall {
			cost += int64(j)
		}
		if err := wb.Charge(cost); err != nil {
			return nil, err
		}
		// Register dependences. Uses first, then the def.
		for _, r := range refUses(in) {
			if d, ok := lastDef[r]; ok {
				addEdge(d, j, True)
			}
			lastUses[r] = append(lastUses[r], j)
		}
		if d := in.Def(); d != ir.NoReg {
			for _, u := range lastUses[d] {
				if u != j {
					addEdge(u, j, Anti)
				}
			}
			if prev, ok := lastDef[d]; ok {
				addEdge(prev, j, Output)
			}
			lastDef[d] = j
			delete(lastUses, d)
		}

		// Memory dependences.
		if in.Op.IsMem() {
			ref := refMemRef{node: j, sym: in.Sym, base: in.Base, off: in.Off, baseVer: -1}
			if in.Base != ir.NoReg {
				if d, ok := lastDef[in.Base]; ok {
					ref.baseVer = d
				}
			}
			for _, prev := range memOps {
				pi := b.Instrs[prev.node]
				if !refMayAlias(prev, pi, ref, in, opts.Alias) {
					continue
				}
				switch {
				case pi.Op.IsStore() && in.Op.IsLoad():
					addEdge(prev.node, j, Mem)
				case pi.Op.IsLoad() && in.Op.IsStore():
					addEdge(prev.node, j, Mem)
				case pi.Op.IsStore() && in.Op.IsStore():
					addEdge(prev.node, j, Mem)
				}
			}
			memOps = append(memOps, ref)
		}

		// Call barriers: nothing moves across a call.
		if in.Op == ir.OpCall {
			start := lastBarrier
			if start < 0 {
				start = 0
			}
			for k := start; k < j; k++ {
				addEdge(k, j, Control)
			}
			lastBarrier = j
		} else if lastBarrier >= 0 {
			addEdge(lastBarrier, j, Control)
		}

		// Block terminator stays last.
		if in.Op.IsTerminator() {
			for k := 0; k < j; k++ {
				addEdge(k, j, Control)
			}
		}
	}
	return g, nil
}

// refMemRef identifies a memory reference for disambiguation: the symbol,
// the base register and the version of that base (the instruction that
// defined it when the reference was made; -1 for an undefined/live-in
// base or no base at all).
type refMemRef struct {
	node    int
	sym     string
	base    ir.Reg
	baseVer int
	off     int64
}

// mayAlias reports whether two memory references may access the same
// location under the given mode:
//
//   - an unknown symbol ("" — the raw-pointer world) aliases everything;
//   - distinct symbols are disjoint under AliasDisjoint (the paper's §4.2
//     Fortran-argument rule) and may alias under AliasConservative;
//   - within a symbol, two references off the same base register version
//     (including both base-less, e.g. spill slots) alias exactly when
//     their constant offsets are equal — valid in both C and Fortran,
//     this is the constant-offset disambiguation any 1990s compiler
//     performed;
//   - otherwise (different or redefined bases) the references may alias.
func refMayAlias(a refMemRef, ai *ir.Instr, b refMemRef, bi *ir.Instr, mode AliasMode) bool {
	if ai.Sym == "" || bi.Sym == "" {
		return true
	}
	if ai.Sym != bi.Sym {
		return mode == AliasConservative
	}
	if a.base == b.base && a.baseVer == b.baseVer {
		return a.off == b.off
	}
	return true
}

// buildOutcome is one builder's result on one block: the graph or the
// error, the budget it used, and the panic, if any, rendered.
type buildOutcome struct {
	g     *Graph
	err   string
	used  int64
	panic string
}

func runBuilder(build func(*ir.Block, BuildOptions, *budget.Budget) (*Graph, error), b *ir.Block, opts BuildOptions, limit int64) (out buildOutcome) {
	wb := budget.New(context.Background(), limit)
	defer func() {
		out.used = wb.Used()
		if r := recover(); r != nil {
			out.panic = fmt.Sprint(r)
		}
	}()
	g, err := build(b, opts, wb)
	out.g = g
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// checkBuildAgainstReference builds b with both builders, unlimited and
// under a cap that trips halfway through construction, and fails on the
// first difference.
func checkBuildAgainstReference(t *testing.T, name string, b *ir.Block, mode AliasMode) {
	t.Helper()
	opts := BuildOptions{Alias: mode}
	full := runBuilder(refBuildBudgeted, b, opts, 0)
	limits := []int64{0} // unlimited
	if half := full.used / 2; half > 0 {
		limits = append(limits, half)
	}
	for _, limit := range limits {
		want := full
		if limit > 0 {
			want = runBuilder(refBuildBudgeted, b, opts, limit)
		}
		got := runBuilder(BuildBudgeted, b, opts, limit)
		if got.panic != want.panic || got.err != want.err || got.used != want.used {
			t.Fatalf("%s (%v, limit %d): got panic %q err %q used %d, reference panic %q err %q used %d",
				name, mode, limit, got.panic, got.err, got.used, want.panic, want.err, want.used)
		}
		if (got.g == nil) != (want.g == nil) {
			t.Fatalf("%s (%v, limit %d): graph nil %v, reference nil %v", name, mode, limit, got.g == nil, want.g == nil)
		}
		if got.g == nil {
			continue
		}
		if !reflect.DeepEqual(got.g.Succs, want.g.Succs) {
			t.Fatalf("%s (%v): Succs differ from the reference\n got %v\nwant %v", name, mode, got.g.Succs, want.g.Succs)
		}
		if !reflect.DeepEqual(got.g.Preds, want.g.Preds) {
			t.Fatalf("%s (%v): Preds differ from the reference\n got %v\nwant %v", name, mode, got.g.Preds, want.g.Preds)
		}
	}
}

// TestBuildMatchesReference checks the builder against the reference on
// every block of workload.Corpus, in both alias modes.
func TestBuildMatchesReference(t *testing.T) {
	names, blocks := workload.Corpus(600)
	for i, b := range blocks {
		for _, mode := range []AliasMode{AliasDisjoint, AliasConservative} {
			checkBuildAgainstReference(t, names[i], b, mode)
		}
	}
}

// FuzzDepsReference parses arbitrary IR and builds every block with the
// builder and the reference, in both alias modes, requiring the same
// edges in the same order, the same budget use and the same panics.
// The corpus starts from FuzzParse's seeds and the fenced blocks of
// docs/IR.md; extend it with `go test -fuzz=FuzzDepsReference`.
func FuzzDepsReference(f *testing.F) {
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
		if len(src) > 1<<16 {
			return
		}
		prog, err := ir.Parse(src)
		if err != nil {
			return
		}
		for _, b := range prog.Blocks() {
			for _, mode := range []AliasMode{AliasDisjoint, AliasConservative} {
				checkBuildAgainstReference(t, b.Label, b, mode)
			}
		}
	})
}
