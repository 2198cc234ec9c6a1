package compile

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"bsched/internal/ir"
	"bsched/internal/workload"
)

// manyBlockProgram builds a program of n structurally distinct blocks
// spread over two functions.
func manyBlockProgram(t *testing.T, n int) *ir.Program {
	t.Helper()
	var sb strings.Builder
	for fn := 0; fn < 2; fn++ {
		fmt.Fprintf(&sb, "func f%d\n", fn)
		for i := fn; i < n; i += 2 {
			fmt.Fprintf(&sb, "block b%d freq=%d\n", i, i+1)
			fmt.Fprintf(&sb, "  v0 = const %d\n", i)
			sb.WriteString("  v1 = load a[v0+0]\n")
			fmt.Fprintf(&sb, "  v2 = load a[v0+%d]\n", 8+i)
			sb.WriteString("  v3 = add v1, v2\n")
			sb.WriteString("  v4 = load b[v3+0]\n")
			sb.WriteString("  v5 = mul v3, v4\n")
			sb.WriteString("  store c[v0+0], v5\n")
			sb.WriteString("end\n")
		}
	}
	p, err := ir.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunParallelDeterministic compiles the same program at several
// parallelism levels and expects bit-identical scheduled programs, block
// order and degradation lists.
func TestRunParallelDeterministic(t *testing.T) {
	prog := manyBlockProgram(t, 17)
	ref, err := Run(context.Background(), prog, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 2, 4, 16} {
		got, err := Run(context.Background(), prog, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", par, err)
		}
		if got.Program.String() != ref.Program.String() {
			t.Errorf("Parallelism=%d produced a different scheduled program", par)
		}
		if len(got.Blocks) != len(ref.Blocks) {
			t.Fatalf("Parallelism=%d: %d block results, want %d", par, len(got.Blocks), len(ref.Blocks))
		}
		for i := range got.Blocks {
			if got.Blocks[i].Block.Label != ref.Blocks[i].Block.Label {
				t.Errorf("Parallelism=%d: block %d is %q, want %q",
					par, i, got.Blocks[i].Block.Label, ref.Blocks[i].Block.Label)
			}
		}
		if fmt.Sprint(got.Degradations) != fmt.Sprint(ref.Degradations) {
			t.Errorf("Parallelism=%d changed the degradation list", par)
		}
	}
}

// TestRunBlockRepeatable compiles every block of the paper suite 20
// times with default options and expects one output text per block:
// nothing in the pipeline (a map walk in the register allocator, say)
// may make the same input compile differently from run to run.
func TestRunBlockRepeatable(t *testing.T) {
	progs := workload.All()
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, f := range progs[name].Funcs {
			for _, b := range f.Blocks {
				var first string
				for run := 0; run < 20; run++ {
					res, err := RunBlock(context.Background(), b, Options{})
					if err != nil {
						t.Fatalf("%s/%s: %v", name, b.Label, err)
					}
					if got := res.Block.String(); run == 0 {
						first = got
					} else if got != first {
						t.Fatalf("%s/%s: run %d compiled differently from run 0", name, b.Label, run)
					}
				}
			}
		}
	}
}

// TestRunParallelErrorAttribution plants hard register-allocation errors
// (use before definition) in two known blocks and checks the parallel
// path reports the first program-order error with the right block label,
// same as sequential.
func TestRunParallelErrorAttribution(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("func f\n")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&sb, "block b%d freq=1\n", i)
		if i == 2 || i == 4 {
			// v9 is never defined: a hard regalloc error, not a degradation.
			sb.WriteString("  v1 = addi v9, 1\n  store out[0], v1\n")
		} else {
			sb.WriteString("  v0 = const 1\n  v1 = addi v0, 2\n  store out[0], v1\n")
		}
		sb.WriteString("end\n")
	}
	prog, err := ir.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		_, err := Run(context.Background(), prog, Options{Parallelism: par})
		if err == nil {
			t.Fatalf("Parallelism=%d: no error from use-before-def block", par)
		}
		var ce *Error
		if !errors.As(err, &ce) {
			t.Fatalf("Parallelism=%d: error is %T, want *compile.Error", par, err)
		}
		if ce.Block != "b2" {
			t.Errorf("Parallelism=%d: error attributed to block %q, want first failing block b2", par, ce.Block)
		}
	}
}

// TestRunParallelNegative treats negative parallelism as sequential.
func TestRunParallelNegative(t *testing.T) {
	prog := manyBlockProgram(t, 3)
	res, err := Run(context.Background(), prog, Options{Parallelism: -5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 3 {
		t.Fatalf("got %d block results, want 3", len(res.Blocks))
	}
}
