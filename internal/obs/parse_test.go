package obs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// escapesRegistry holds a family of every kind, label values that need
// every escape, an exemplar, and a labeled family with no series.
func escapesRegistry() *Registry {
	r := NewRegistry()
	r.Counter("test_total", "events").Add(3)
	cv := r.CounterVec("test_by_kind_total", "events by kind", "kind")
	cv.With("a").Inc()
	cv.With("weird\"label\\value\n").Add(2)
	r.CounterVec("test_unused_total", "never incremented", "kind")
	r.Gauge("test_depth", "a gauge", func() float64 { return 4.5 })
	r.Info("test_build_info", "build info", []string{"go_version"}, []string{"go1.x"})
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.1, 1})
	h.ObserveExemplar(0.05, "a72b1627920951f7dc62d15474dd0b93")
	h.Observe(2)
	hv := r.HistogramVec("test_stage_seconds", "per-stage", []float64{0.5}, "stage")
	hv.With("parse").Observe(0.2)
	hv.With("compile").Observe(0.7)
	return r
}

// roundTrip checks that the text the writer renders for r parses back
// to r's snapshot, bar what text cannot carry: the exemplar, a comment
// ParseText checks but does not return, and the label names of a family
// with no series.
func roundTrip(t *testing.T, r *Registry) {
	t.Helper()
	var b bytes.Buffer
	r.WriteText(&b)
	text := b.String()
	want := r.Snapshot()
	got, err := ParseText(&b)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	for i := range want {
		want[i].exemplar = nil
		if len(want[i].Series) == 0 {
			want[i].Labels = nil
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed\n%+v\nwant\n%+v", got, want)
	}
}

// TestParseTextRoundTrip: the metrics.golden registry's text parses
// back to its snapshot.
func TestParseTextRoundTrip(t *testing.T) { roundTrip(t, goldenRegistry()) }

// TestValidateExpositionAcceptsRegistryOutput: the text of a registry
// with every escape, an exemplar and a series-less family is a valid
// exposition, and parses back to its snapshot.
func TestValidateExpositionAcceptsRegistryOutput(t *testing.T) {
	roundTrip(t, escapesRegistry())
}

// TestValidateExpositionAcceptsExemplarComment: a `# EXEMPLAR` line
// right after its histogram is accepted and not returned.
func TestValidateExpositionAcceptsExemplarComment(t *testing.T) {
	text := "# HELP h latency\n# TYPE h histogram\n" +
		"h_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1.5\nh_count 2\n" +
		"# EXEMPLAR h trace_id=\"a72b1627920951f7dc62d15474dd0b93\" 0.00028\n"
	got, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exemplar comment rejected: %v", err)
	}
	want := []FamilySnapshot{{Name: "h", Help: "latency", Kind: "histogram", Bounds: []float64{0.1},
		Series: []SeriesSnapshot{{BucketCounts: []int64{1, 1}, Sum: 1.5, Count: 2}}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed\n%+v\nwant\n%+v", got, want)
	}
}

// header is a family's HELP and TYPE lines.
func header(name, kind string) string {
	return "# HELP " + name + " x\n# TYPE " + name + " " + kind + "\n"
}

// malformedExpositions are texts outside the writer's dialect, each
// with a fragment of the error ParseText must give for it.
var malformedExpositions = []struct{ name, text, want string }{
	{"sample without TYPE", "# HELP foo_total x\nfoo_total 3\n", "want # TYPE"},
	{"bad metric name", header("9bad", "counter") + "9bad 1\n", "malformed HELP"},
	{"unknown type", header("foo", "sometype") + "foo 1\n", "want # TYPE"},
	{"duplicate TYPE", header("foo", "counter") + "# TYPE foo counter\nfoo 1\n", "want a # HELP"},
	{"negative counter", header("foo", "counter") + "foo -1\n", "counter foo is -1"},
	{"bad label name", header("foo", "counter") + "foo{9bad=\"x\"} 1\n", "malformed or repeated label"},
	{"duplicate label", header("foo", "counter") + "foo{a=\"x\",a=\"y\"} 1\n", "malformed or repeated label"},
	{"unquoted label value", header("foo", "counter") + "foo{a=x} 1\n", "malformed or repeated label"},
	{"bad escape", header("foo", "counter") + "foo{a=\"\\t\"} 1\n", "invalid escape"},
	{"unterminated labels", header("foo", "counter") + "foo{a=\"x\" 1\n", "want a foo sample"},
	{"unparseable value", header("foo", "counter") + "foo abc\n", "not spelled as the writer"},
	{"interleaved families", header("a", "counter") + "a 1\n" + header("b", "counter") + "b 1\na 2\n", "want a b sample"},
	{"unknown comment", "# FOO bar\n", "want a # HELP"},
	{"histogram missing inf", header("h", "histogram") + "h_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n", "want a h_bucket sample"},
	{"histogram non-cumulative", header("h", "histogram") + "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n", "not cumulative"},
	{"histogram count mismatch", header("h", "histogram") + "h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n", "not the +Inf bucket's"},
	{"histogram missing sum", header("h", "histogram") + "h_bucket{le=\"+Inf\"} 3\nh_count 3\n", "want a h_sum sample"},
	{"histogram bare sample", header("h", "histogram") + "h 3\n", "want a h_bucket sample"},
	{"le not increasing", header("h", "histogram") + "h_bucket{le=\"1\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n", "le does not increase"},
	{"exemplar for non-histogram", header("foo", "counter") + "foo 1\n# EXEMPLAR foo trace_id=\"ab\" 1\n", "does not follow its histogram"},
	{"exemplar bad value", header("h", "histogram") + "h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n# EXEMPLAR h trace_id=\"ab\" xyz\n", "exemplar of h"},
	{"invalid UTF-8", header("foo", "counter") + "foo{a=\"\xff\"} 1\n", "UTF-8"},
	{"second label-name list", header("foo", "counter") + "foo{a=\"x\"} 1\nfoo{b=\"y\"} 1\n", "the family's first"},
	{"timestamp", header("foo", "counter") + "foo 1 1700000000000\n", "not spelled as the writer"},
	{"missing HELP", "# TYPE foo counter\nfoo 1\n", "want a # HELP"},
	{"duplicate series", header("foo", "counter") + "foo{a=\"x\"} 1\nfoo{a=\"x\"} 2\n", "appears twice"},
	{"summary TYPE", header("foo", "summary") + "foo_sum 1\nfoo_count 1\n", "want # TYPE"},
	{"untyped TYPE", header("foo", "untyped") + "foo 1\n", "want # TYPE"},
	{"kind without TYPE", "# HELP foo x\ncounter\nfoo 1\n", "want # TYPE"},
	{"two sets of bounds", header("h", "histogram") + "h_bucket{a=\"x\",le=\"1\"} 0\nh_bucket{a=\"x\",le=\"+Inf\"} 0\nh_sum{a=\"x\"} 0\nh_count{a=\"x\"} 0\n" +
		"h_bucket{a=\"y\",le=\"2\"} 0\nh_bucket{a=\"y\",le=\"+Inf\"} 0\nh_sum{a=\"y\"} 0\nh_count{a=\"y\"} 0\n", "the family's first [1]"},
	{"exemplar after another family", header("h", "histogram") + "h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n" + header("foo", "counter") + "foo 1\n# EXEMPLAR h trace_id=\"ab\" 1\n", "does not follow its histogram"},
	{"value not as written", header("foo", "counter") + "foo 1.0\n", "not spelled as the writer"},
	{"blank line", header("foo", "counter") + "foo 1\n\n", "want a # HELP"},
	{"no final newline", header("foo", "counter") + "foo 1", "newline"},
}

func TestParseTextRejectsMalformed(t *testing.T) {
	for _, tc := range malformedExpositions {
		_, err := ParseText(strings.NewReader(tc.text))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one with %q", tc.name, err, tc.want)
		}
	}
}

// FuzzExposition holds the parser and the writer to each other: for any
// text ParseText accepts, ParseText reads what WriteSnapshotText writes
// for its families back to the same families.
func FuzzExposition(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, tc := range malformedExpositions {
		f.Add([]byte(tc.text))
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		fams, err := ParseText(bytes.NewReader(text))
		if err != nil {
			return
		}
		var b bytes.Buffer
		WriteSnapshotText(&b, fams)
		again, err := ParseText(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("ParseText rejects the writer's text: %v\n%s", err, b.Bytes())
		}
		// %#v prints every float exactly and NaN as NaN, so unlike
		// reflect.DeepEqual it counts two NaN values (a gauge may be one)
		// as equal.
		if got, want := fmt.Sprintf("%#v", again), fmt.Sprintf("%#v", fams); got != want {
			t.Fatalf("written and parsed again\n%s\nwant\n%s", got, want)
		}
	})
}
