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

// TestModuleVets runs go vet over the whole module. go test runs only
// vet's high-confidence subset on the packages it builds, so without
// this the other analyzers — lostcancel and copylocks among them —
// would check the module only outside the test suite.
func TestModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("vets the whole module")
	}
	if out, err := exec.Command("go", "vet", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet ./...: %v\n%s", err, out)
	}
}
