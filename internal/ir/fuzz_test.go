package ir_test

import (
	"strings"
	"testing"

	. "bsched/internal/ir"
)

// fuzzParseSeeds is FuzzParse's seed corpus; TestCodecMatchesReference
// runs it through the reference codec too.
var fuzzParseSeeds = []string{
	"func f\nblock b freq=1\nv0 = const 1\nend",
	"func f\nblock b freq=2.5\nliveout v1\nv0 = const 4\nv1 = load a[v0+8]\nstore b[16], v1 !spill\nbr v1, b\nend",
	"func f\nblock b freq=1\nv0 = load ?[0] !lat=2\nret\nend",
	"# comment\nfunc g\nblock x freq=0.5\nv0 = const 1\nv1 = fma v0, v0, v0\nend",
	"func f\nblock b\nend",
	"garbage in, garbage out",
	"func f\nblock b freq=1\nv0 = add v1\nend",
	"func f\nblock b freq=1e309\nend",
	"func f\nblock b freq=1\nv99999999999 = const 1\nend",
	// Physical register numbers past the int32 range, which once
	// wrapped around to r1, r0 and a negative register.
	"func f\nblock b freq=1\nr4294967297 = const 1\nend",
	"func f\nblock b freq=1\nv0 = load a[r4294967296+0]\nend",
	"func f\nblock b freq=1\nliveout r4293918720\nend",
}

// FuzzParse checks that the parser never panics, that it agrees with the
// reference codec (reference_test.go) on every input, and that anything
// it accepts survives a print/reparse round trip. Run the corpus as part
// of the normal test suite; extend it with `go test -fuzz=FuzzParse`.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzParseSeeds {
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
