package bsched

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one of the main packages (cmd/bsched,
// examples/quickstart, …) into a temp dir once per test run.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func writeDemo(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "demo.ir")
	src := `func demo
block body freq=100
  v0 = const 8
  v1 = load x[v0+0]
  v2 = load x[v0+8]
  v3 = fadd v1, v2
  v4 = load idx[v0+0]
  v5 = load table[v4+0]
  v6 = fmul v3, v5
  store out[v0+0], v6
  v7 = addi v0, 8
  v8 = slt v7, v6
  br v8, body
end
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestBschedCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/bsched")
	demo := writeDemo(t)

	out := run(t, bin, demo)
	for _, want := range []string{"balanced weights", "schedules", "expected stalls"} {
		if !strings.Contains(out, want) {
			t.Errorf("default output missing %q:\n%s", want, out)
		}
	}
	if out := run(t, bin, "-explain", "1", demo); !strings.Contains(out, "component") {
		t.Errorf("-explain output wrong:\n%s", out)
	}
	if out := run(t, bin, "-dot", demo); !strings.Contains(out, "digraph") {
		t.Errorf("-dot output wrong:\n%s", out)
	}
	if out := run(t, bin, "-unroll", "2", demo); !strings.Contains(out, "8 loads") {
		t.Errorf("-unroll did not double the loads:\n%s", out)
	}
	if out := run(t, bin, "-stages", demo); !strings.Contains(out, "stage 3") {
		t.Errorf("-stages output wrong:\n%s", out)
	}
	if out := run(t, bin, "-lineopt", demo); !strings.Contains(out, "marked as known cache hits") {
		t.Errorf("-lineopt output wrong:\n%s", out)
	}
}

func TestBsimCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/bsim")
	demo := writeDemo(t)

	out := run(t, bin, "-mem", "N(3,5)", demo)
	for _, want := range []string{"mean runtime", "interlocks", "spill code"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if out := run(t, bin, "-compare", "-mem", "L80(2,10)", demo); !strings.Contains(out, "improvement") {
		t.Errorf("-compare output wrong:\n%s", out)
	}
	if out := run(t, bin, "-trace", "-mem", "fixed(4)", demo); !strings.Contains(out, "timeline") {
		t.Errorf("-trace output wrong:\n%s", out)
	}
	if out := run(t, bin, "-proc", "max8x2", "-mem", "N(2,2)", demo); !strings.Contains(out, "MAX-8x2") {
		t.Errorf("superscalar proc spec not honoured:\n%s", out)
	}
}

func TestPaperreproCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/paperrepro")
	out := run(t, bin, "-quick", "-only", "figure2,figure3,table1,summary")
	for _, want := range []string{"Figure 2", "Figure 3", "Table 1", "Workload summary"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	dir := t.TempDir()
	run(t, bin, "-quick", "-only", "figure3", "-csv", dir)
	if _, err := os.Stat(filepath.Join(dir, "figure3.csv")); err != nil {
		t.Errorf("figure3.csv not written: %v", err)
	}
}
