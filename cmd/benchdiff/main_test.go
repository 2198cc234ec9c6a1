package main

import (
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	base := map[string]benchmark{
		"A": {Name: "A", NsPerOp: 1000, AllocsPerOp: 10},
		"B": {Name: "B", NsPerOp: 500, AllocsPerOp: 1},
	}
	cases := []struct {
		name          string
		old, new      map[string]benchmark
		wantShared    int
		wantRegressed int
		wantLine      string // a substring the report must contain
	}{{
		name:       "unchanged",
		old:        base,
		new:        base,
		wantShared: 2,
	}, {
		name: "ns-regression-fails",
		old:  base,
		new: map[string]benchmark{
			"A": {Name: "A", NsPerOp: 1200, AllocsPerOp: 10},
			"B": base["B"],
		},
		wantShared: 2, wantRegressed: 1, wantLine: "! A",
	}, {
		name: "allocs-regression-fails",
		old:  base,
		new: map[string]benchmark{
			"A": {Name: "A", NsPerOp: 900, AllocsPerOp: 14},
			"B": base["B"],
		},
		wantShared: 2, wantRegressed: 1, wantLine: "! A",
	}, {
		// +1 alloc is 100% on B's count of 1 and -1 is noise either
		// way: neither passes the two-alloc floor.
		name: "one-alloc-jitter-passes",
		old:  base,
		new: map[string]benchmark{
			"A": {Name: "A", NsPerOp: 1000, AllocsPerOp: 9},
			"B": {Name: "B", NsPerOp: 500, AllocsPerOp: 2},
		},
		wantShared: 2,
	}, {
		// Past the two-alloc slack but within 10% of a large count.
		name:       "large-count-within-threshold-passes",
		old:        map[string]benchmark{"A": {Name: "A", NsPerOp: 1000, AllocsPerOp: 1000}},
		new:        map[string]benchmark{"A": {Name: "A", NsPerOp: 1000, AllocsPerOp: 1090}},
		wantShared: 1,
	}, {
		name: "renamed-rows-only-warn",
		old:  base,
		new: map[string]benchmark{
			"A2": {Name: "A2", NsPerOp: 99999, AllocsPerOp: 999},
			"B2": {Name: "B2", NsPerOp: 99999, AllocsPerOp: 999},
		},
		wantShared: 0, wantLine: "gone  A",
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			shared, regressed := compare(&out, c.old, c.new, 0.10)
			if shared != c.wantShared || regressed != c.wantRegressed {
				t.Fatalf("shared, regressed = %d, %d, want %d, %d\n%s",
					shared, regressed, c.wantShared, c.wantRegressed, out.String())
			}
			if !strings.Contains(out.String(), c.wantLine) {
				t.Fatalf("report lacks %q:\n%s", c.wantLine, out.String())
			}
		})
	}
}
