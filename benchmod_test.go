package bsched

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks the benchmark harness. bench/ is its
// own Go module, so `go test ./...` never compiles it; vetting it here
// makes a change that drops or renames a name the benchmark uses fail
// the test suite rather than the next benchmark run.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the bench module")
	}
	cmd := exec.Command("go", "vet", ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}
