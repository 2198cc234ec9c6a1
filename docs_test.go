package bsched

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bsched/internal/sched"
)

// readDoc returns one file under docs/, failing the test if it is
// missing.
func readDoc(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("docs", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestPolicyDocCoversRegistry: docs/POLICIES.md names every registered
// scheduling policy, plus auto, in code spans.
func TestPolicyDocCoversRegistry(t *testing.T) {
	doc := readDoc(t, "POLICIES.md")
	for _, name := range append(sched.PolicyNames(), sched.PolicyAuto) {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("docs/POLICIES.md does not name policy `%s`", name)
		}
	}
}

// TestAPIDocCoversEndpoints: docs/API.md, the HTTP reference, covers
// every served endpoint and the policy option, and the cache-key
// reference it links to exists.
func TestAPIDocCoversEndpoints(t *testing.T) {
	doc := readDoc(t, "API.md")
	for _, want := range []string{
		"policy",
		"POST /v1/compile", "POST /v1/compile/batch",
		"GET /v1/peer/lookup", "PUT /v1/peer/offer",
		"GET /healthz", "GET /stats", "GET /metrics", "GET /v1/traces",
		"GET /v1/fleet/stats", "GET /v1/fleet/metrics", "GET /v1/profiles",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/API.md is missing %q", want)
		}
	}
	readDoc(t, "CACHE-KEYS.md")
}

// TestGofmt: every .go file in the tree is gofmt-clean, i.e. equal to
// go/format's rendering of itself. testdata and hidden directories
// (.git, the benchmark harness's .bench_build) are not source.
func TestGofmt(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || name != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(src, out) {
			t.Errorf("%s is not gofmt-clean (run gofmt -w %s)", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
