package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// corpusBytes renders everything a serving workload's generator produces
// for one seed: the warm table's programs, the open-loop arrival times
// and the first timed requests.
func corpusBytes(spec servingSpec, seed int64) []byte {
	var buf bytes.Buffer
	table, next := spec.load(rngFor(seed, spec.name), true)
	if table != nil {
		for _, s := range table.progs {
			buf.WriteString(s.prog.String())
		}
	}
	for _, d := range arrivals(rngFor(seed, spec.name+"/arrivals"), spec.rate, time.Second) {
		buf.WriteString(d.String())
	}
	for i := 0; i < 300; i++ {
		buf.Write(next().body)
	}
	return buf.Bytes()
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for _, spec := range servingSpecs {
		a, b, c := corpusBytes(spec, 1), corpusBytes(spec, 1), corpusBytes(spec, 2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different corpora", spec.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same corpus", spec.name)
		}
	}
	order := func(seed int64) string {
		return fmt.Sprint(rngFor(seed, "paper-suite").Perm(len(paperPrograms())))
	}
	if order(1) != order(1) || order(1) == order(2) {
		t.Errorf("paper-suite order: seed 1 %s, again %s, seed 2 %s", order(1), order(1), order(2))
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 999 samples (9.99 beyond) was not refused")
	}
	xs = append(xs, 999)
	if v, err := percentile(xs, 0.99); err != nil || v != 989 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989", v, err)
	}
	if v, err := percentile(xs, 0.5); err != nil || v != 499 {
		t.Errorf("p50 of 0..999 = %v, %v; want 499", v, err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

// declared reads the metric declarations of BENCHMARK.json at the
// repository root.
func declared(t *testing.T) (e2e, layers []metricDecl) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bj struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDecl{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, metricDecl{m.Name, m.Unit})
	}
	return e2e, layers
}

func TestBenchmarkJSONMatchesReport(t *testing.T) {
	e2e, layers := declared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, m := range append(append([]metricDecl(nil), e2e...), layers...) {
		if !name.MatchString(m.name) {
			t.Errorf("metric name %q", m.name)
		}
	}
	same := func(what string, got, want []metricDecl) {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: BENCHMARK.json declares %v, the program reports %v", what, got, want)
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layers, perLayer)
}

// TestShortSmoke runs every workload for real (in-process server, small
// corpora, half-second phases, traced replay): every check passes, the run
// yields exactly the declared metric sets, and the trace is a Chrome
// trace-event file.
func TestShortSmoke(t *testing.T) {
	e2e, layers := declared(t)
	for _, name := range workloads() {
		cfg := config{workload: name, seed: 1, seconds: 1, trace: true, short: true,
			work: t.TempDir(), out: t.TempDir()}
		o, err := runWorkload(cfg, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", name, o.failed, o.attempted, o.checkErrs)
		}
		for _, set := range []struct {
			trace bool
			want  []metricDecl
		}{{false, e2e}, {true, layers}} {
			cfg.trace = set.trace
			vals, _, err := reported(cfg, o)
			if err != nil {
				t.Errorf("%s trace=%v: %v", name, set.trace, err)
				continue
			}
			for _, d := range set.want {
				if _, ok := vals[d.name]; !ok {
					t.Errorf("%s trace=%v: missing %s", name, set.trace, d.name)
				}
			}
		}
		b, err := os.ReadFile(filepath.Join(cfg.out, name+".trace.json"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var tr struct{ TraceEvents []map[string]any }
		if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Errorf("%s: trace is not a Chrome trace-event file (%v, %d events)", name, err, len(tr.TraceEvents))
		}
	}
}
