package compile

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"bsched/internal/ir"
	"bsched/internal/sched"
)

// FuzzParseCompile drives arbitrary text through the full hardened path:
// parse, then compile under the balanced and traditional policies with a
// small work budget.
// The contract under test: the front door never panics — every failure is
// a parse error or a typed *Error, and every success yields a program
// with the same block count. Extend with `go test -fuzz=FuzzParseCompile`.
func FuzzParseCompile(f *testing.F) {
	seeds := []string{
		"func f\nblock b freq=1\nv0 = const 1\nend",
		"func f\nblock b freq=1\nv0 = load a[0]\nv1 = load b[8]\nv2 = add v0, v1\nliveout v2\nend",
		"func f\nblock b freq=2\nv0 = load ?[0]\nstore ?[8], v0\nret\nend",
		"func f\nblock b freq=1\nv0 = load a[0] !lat=30\nv1 = fma v0, v0, v0\nend",
		"func f\nblock b freq=1\nv0 = const 1\nbr v0, b\nend",
		"func g\nblock x freq=0.5\nv0 = const 3\nv1 = load m[v0+0]\nv2 = load m[v1+0]\nv3 = load m[v2+0]\nliveout v3\nend",
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
		for _, s := range []string{sched.PolicyBalanced, sched.PolicyTraditional} {
			res, err := Run(context.Background(), prog, Options{Policy: s, BlockBudget: 1 << 16})
			if err != nil {
				var ce *Error
				if !errors.As(err, &ce) {
					t.Fatalf("%v: compile error is not a *compile.Error: %v (%T)", s, err, err)
				}
				continue
			}
			if got, want := len(res.Program.Blocks()), len(prog.Blocks()); got != want {
				t.Fatalf("%v: compiled %d blocks from %d", s, got, want)
			}
		}
	})
}
