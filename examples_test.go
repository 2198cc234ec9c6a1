package bsched

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesGolden builds every program under examples/, runs it, and
// compares its stdout with testdata/examples/<name>.golden. The examples
// seed every random stream, so their output is fixed; a difference is a
// change in what they show.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	for _, m := range mains {
		pkg := filepath.Dir(m)
		t.Run(filepath.Base(pkg), func(t *testing.T) {
			got, err := exec.Command(buildTool(t, pkg)).Output()
			if err != nil {
				t.Fatalf("running %s: %v", pkg, err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "examples", filepath.Base(pkg)+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s output differs from its golden:\n%s", pkg, got)
			}
		})
	}
}
