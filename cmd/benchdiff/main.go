// Command benchdiff compares two BENCH_<n>.json files (the output of
// `make bench-json`) and fails when any benchmark shared by name
// regressed beyond a threshold, in ns/op or in allocs/op:
//
//	benchdiff [-threshold 0.10] old.json new.json
//
// A shared benchmark regresses when its ns/op grows by more than the
// threshold, or when its allocs/op grows by more than the threshold and
// by more than two allocations (so one or two allocations of jitter on a
// tiny count never fail the gate).
//
// Exit status 0 when every shared benchmark is within the threshold
// (or when the files share no benchmarks at all — renames are a
// warning, not a failure), 1 when at least one regressed, 2 on usage
// or decode errors. Benchmarks present in only one file are listed but
// never fail the run; only apples-to-apples comparisons gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type benchFile struct {
	GoVersion  string      `json:"go_version"`
	Benchmarks []benchmark `json:"benchmarks"`
}

type benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// allocSlack is the allocs/op growth a shared benchmark may show whatever
// the threshold: it absorbs the odd allocation a runtime or map-growth
// change adds to a small count.
const allocSlack = 2

func load(path string) (map[string]benchmark, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]benchmark, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		out[b.Name] = b
	}
	return out, f.GoVersion, nil
}

// compare writes one line per benchmark of either set to w and returns
// how many benchmarks the sets share and how many of those regressed
// beyond threshold in ns/op or allocs/op.
func compare(w io.Writer, oldSet, newSet map[string]benchmark, threshold float64) (shared, regressed int) {
	names := make([]string, 0, len(newSet))
	for name := range newSet {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nb := newSet[name]
		ob, ok := oldSet[name]
		if !ok {
			fmt.Fprintf(w, "  new   %-40s %12.0f ns/op %8d allocs/op (no baseline)\n", name, nb.NsPerOp, nb.AllocsPerOp)
			continue
		}
		shared++
		delta := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		growth := nb.AllocsPerOp - ob.AllocsPerOp
		allocsWorse := growth > allocSlack && float64(growth) > threshold*float64(ob.AllocsPerOp)
		mark := " "
		if delta > threshold || allocsWorse {
			mark = "!"
			regressed++
		}
		fmt.Fprintf(w, "%s %-40s %12.0f -> %12.0f ns/op  %+6.1f%%  %8d -> %8d allocs/op\n",
			mark, name, ob.NsPerOp, nb.NsPerOp, 100*delta, ob.AllocsPerOp, nb.AllocsPerOp)
	}
	gone := make([]string, 0, len(oldSet))
	for name := range oldSet {
		if _, ok := newSet[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "  gone  %s\n", name)
	}
	return shared, regressed
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "maximum tolerated ns/op and allocs/op regression as a fraction (0.10 = +10%)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-threshold frac] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldPath, newPath := flag.Arg(0), flag.Arg(1)
	oldSet, oldVer, err := load(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	newSet, newVer, err := load(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if oldVer != newVer {
		fmt.Printf("note: go versions differ (%s -> %s)\n", oldVer, newVer)
	}

	shared, regressed := compare(os.Stdout, oldSet, newSet, *threshold)
	switch {
	case shared == 0:
		fmt.Printf("warning: %s and %s share no benchmarks — nothing gated\n", oldPath, newPath)
	case regressed > 0:
		fmt.Printf("FAIL: %d of %d shared benchmarks regressed more than %.0f%% in ns/op or allocs/op\n",
			regressed, shared, 100**threshold)
		os.Exit(1)
	default:
		fmt.Printf("ok: %d shared benchmarks within %.0f%%\n", shared, 100**threshold)
	}
}
