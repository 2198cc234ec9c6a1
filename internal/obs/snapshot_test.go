package obs

import (
	"reflect"
	"strings"
	"testing"
)

// buildTestRegistry makes a registry with one family of each kind and
// deterministic values scaled by base.
func buildTestRegistry(base int64) *Registry {
	r := NewRegistry()
	r.Counter("snap_total", "events").Add(base)
	cv := r.CounterVec("snap_by_kind_total", "by kind", "kind")
	cv.With("a").Add(base)
	cv.With("b").Add(2 * base)
	r.Gauge("snap_depth", "depth", func() float64 { return float64(base) })
	h := r.Histogram("snap_latency_seconds", "latency", []float64{1, 2})
	for i := int64(0); i < base; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
		h.Observe(5)
	}
	return r
}

func findFamily(t *testing.T, fams []FamilySnapshot, name string) FamilySnapshot {
	t.Helper()
	for _, f := range fams {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("family %q not found", name)
	return FamilySnapshot{}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := buildTestRegistry(3)
	fams := r.Snapshot()
	if len(fams) != 4 {
		t.Fatalf("got %d families, want 4", len(fams))
	}
	c := findFamily(t, fams, "snap_total")
	if c.Kind != KindCounter || c.Series[0].Value != 3 {
		t.Fatalf("counter snapshot = %+v", c)
	}
	h := findFamily(t, fams, "snap_latency_seconds")
	if h.Kind != KindHistogram || h.Series[0].Count != 9 {
		t.Fatalf("histogram snapshot = %+v", h)
	}
	want := []int64{3, 3, 3}
	for i, c := range h.Series[0].BucketCounts {
		if c != want[i] {
			t.Fatalf("bucket counts = %v, want %v", h.Series[0].BucketCounts, want)
		}
	}
}

// TestFind looks series up by family name and label values: a labeled
// counter, an unlabeled histogram with its bounds, and the misses.
func TestFind(t *testing.T) {
	fams := buildTestRegistry(3).Snapshot()
	if s, bounds, ok := Find(fams, "snap_by_kind_total", "b"); !ok || s.Value != 6 || bounds != nil {
		t.Errorf("Find(snap_by_kind_total, b) = %+v, %v, %v", s, bounds, ok)
	}
	s, bounds, ok := Find(fams, "snap_latency_seconds")
	if !ok || s.Count != 9 || len(bounds) != 2 {
		t.Fatalf("Find(snap_latency_seconds) = %+v, %v, %v", s, bounds, ok)
	}
	if p50 := s.Quantile(bounds, 0.5); p50 != 1.5 {
		t.Errorf("p50 = %v, want 1.5 (mid second bucket)", p50)
	}
	for _, miss := range [][]string{{"snap_by_kind_total", "c"}, {"snap_by_kind_total"}, {"snap_missing"}} {
		if _, _, ok := Find(fams, miss[0], miss[1:]...); ok {
			t.Errorf("Find(%q) found a series", miss)
		}
	}
}

func TestMergeFamilies(t *testing.T) {
	nodes := []NodeSnapshot{
		{Node: "node-a", Families: buildTestRegistry(2).Snapshot()},
		{Node: "node-b", Families: buildTestRegistry(5).Snapshot()},
	}
	merged := MergeFamilies(nodes)

	c := findFamily(t, merged, "snap_total")
	if len(c.Series) != 1 || c.Series[0].Value != 7 {
		t.Fatalf("merged counter = %+v, want single series value 7", c)
	}
	cv := findFamily(t, merged, "snap_by_kind_total")
	if len(cv.Series) != 2 {
		t.Fatalf("merged counter vec = %+v", cv)
	}
	for _, s := range cv.Series {
		switch s.LabelValues[0] {
		case "a":
			if s.Value != 7 {
				t.Fatalf("kind=a sum = %v, want 7", s.Value)
			}
		case "b":
			if s.Value != 14 {
				t.Fatalf("kind=b sum = %v, want 14", s.Value)
			}
		}
	}

	g := findFamily(t, merged, "snap_depth")
	if len(g.Labels) != 1 || g.Labels[0] != "node" {
		t.Fatalf("merged gauge labels = %v, want [node]", g.Labels)
	}
	if len(g.Series) != 2 {
		t.Fatalf("merged gauge series = %+v, want one per node", g.Series)
	}
	vals := map[string]float64{}
	for _, s := range g.Series {
		vals[s.LabelValues[0]] = s.Value
	}
	if vals["node-a"] != 2 || vals["node-b"] != 5 {
		t.Fatalf("gauge per-node values = %v", vals)
	}

	h := findFamily(t, merged, "snap_latency_seconds")
	if h.Series[0].Count != 21 {
		t.Fatalf("merged histogram count = %d, want 21", h.Series[0].Count)
	}
	want := []int64{7, 7, 7}
	for i, c := range h.Series[0].BucketCounts {
		if c != want[i] {
			t.Fatalf("merged buckets = %v, want %v", h.Series[0].BucketCounts, want)
		}
	}

	var b strings.Builder
	WriteSnapshotText(&b, merged)
	if parsed, err := ParseText(strings.NewReader(b.String())); err != nil || !reflect.DeepEqual(parsed, merged) {
		t.Fatalf("merged exposition parses to %+v, %v; want the merged families\n%s", parsed, err, b.String())
	}
}

func TestMergeFamiliesSkipsMismatchedBounds(t *testing.T) {
	a := NewRegistry()
	a.Histogram("h", "x", []float64{1, 2}).Observe(0.5)
	b := NewRegistry()
	b.Histogram("h", "x", []float64{3, 4}).Observe(0.5)
	merged := MergeFamilies([]NodeSnapshot{
		{Node: "a", Families: a.Snapshot()},
		{Node: "b", Families: b.Snapshot()},
	})
	h := findFamily(t, merged, "h")
	if h.Series[0].Count != 1 {
		t.Fatalf("mismatched-bounds series was merged: %+v", h)
	}
}

// TestMergedCountersPrintWhole: a merged counter renders as an integer,
// as the node-local /metrics renders it, never in 'g' notation
// (1.2e+06).
func TestMergedCountersPrintWhole(t *testing.T) {
	node := func(name string) NodeSnapshot {
		r := NewRegistry()
		r.Counter("big_total", "Events.").Add(600000)
		return NodeSnapshot{Node: name, Families: r.Snapshot()}
	}
	var b strings.Builder
	WriteSnapshotText(&b, MergeFamilies([]NodeSnapshot{node("a"), node("b")}))
	want := "# HELP big_total Events.\n# TYPE big_total counter\nbig_total 1200000\n"
	if b.String() != want {
		t.Errorf("merged counter renders\n%s\nwant\n%s", b.String(), want)
	}
}
