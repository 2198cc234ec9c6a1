package ir_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

	. "bsched/internal/ir"
)

// parseSeedsPath holds FuzzParse's seed corpus, one Go-quoted string a
// line. TestCodecMatchesReference runs it through the reference codec
// too, and the deps package seeds its DAG-builder fuzz target from it.
const parseSeedsPath = "testdata/parse_seeds.txt"

// fuzzParseSeeds reads the seed corpus; '#' lines are comments.
func fuzzParseSeeds(tb testing.TB) []string {
	tb.Helper()
	raw, err := os.ReadFile(parseSeedsPath)
	if err != nil {
		tb.Fatal(err)
	}
	var seeds []string
	for i, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			tb.Fatalf("%s:%d: %v", parseSeedsPath, i+1, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// FuzzParse checks that the parser never panics, that it agrees with the
// reference codec (reference_test.go) on every input, and that anything
// it accepts survives a print/reparse round trip. Run the corpus as part
// of the normal test suite; extend it with `go test -fuzz=FuzzParse`.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzParseSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkParseAgainstReference(t, src)
		prog, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := prog.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted input failed to reparse: %v\ninput: %q\nprinted:\n%s", err, src, printed)
		}
		if again.String() != printed {
			t.Fatalf("round trip unstable for accepted input %q", src)
		}
	})
}

// TestParseDoesNotPanicOnNoise complements the fuzz corpus with quick
// deterministic noise.
func TestParseDoesNotPanicOnNoise(t *testing.T) {
	noise := []string{
		"", "\n\n\n", "func", "block", "end", "= = =",
		"func f\nblock b freq=1\nv0 = load [\nend",
		"func f\nblock b freq=1\nv0 = load a[v0+\nend",
		"func f\nblock b freq=1\nstore a[0]\nend",
		strings.Repeat("func f\n", 100),
		"func f\nblock b freq=1\n" + strings.Repeat("v0 = const 1\n", 1000) + "end",
	}
	for _, src := range noise {
		_, _ = Parse(src) // must not panic
	}
}
