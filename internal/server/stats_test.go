package server

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/obs"
)

// TestSnapshotCounters: request-driven counters and the request-duration
// histogram land in the registry snapshot /stats serves, under their
// family names, and a p50 comes out of the buckets.
func TestSnapshotCounters(t *testing.T) {
	s := newStats()
	s.requests.Add(3)
	s.ok.Add(2)
	s.cacheHits.Add(1)
	s.hist.ObserveDuration(2 * time.Millisecond)
	fams := s.reg.Snapshot()
	reqs, ok, hits := statValue(fams, "bschedd_requests_total"), statValue(fams, "bschedd_responses_total", "ok"),
		statValue(fams, "bschedd_cache_events_total", "hit")
	if reqs != 3 || ok != 2 || hits != 1 {
		t.Errorf("requests %g, ok %g, hits %g; want 3, 2, 1", reqs, ok, hits)
	}
	h, bounds, _ := obs.Find(fams, "bschedd_request_duration_seconds")
	if p50 := h.Quantile(bounds, 0.5); p50 <= 0 {
		t.Errorf("p50 %gs after one observation", p50)
	}
}

// TestSnapshotStageBreakdown: per-stage samples recorded through the
// stage histogram's StageAt, as the engine records the compiler's
// stages, surface as series of the stage histogram.
func TestSnapshotStageBreakdown(t *testing.T) {
	s := newStats()
	const stages = "bschedd_stage_duration_seconds"
	if _, _, ok := obs.Find(s.reg.Snapshot(), stages, compile.StageWeights); ok {
		t.Error("empty stats carry a weights stage series")
	}
	s.stages.StageAt(nil, nil, compile.StageWeights, time.Now(), 3*time.Millisecond)
	s.stages.StageAt(nil, nil, compile.StageWeights, time.Now(), 3*time.Millisecond)
	s.stages.With(engine.StageQueue).ObserveDuration(100 * time.Microsecond)
	fams := s.reg.Snapshot()
	w, bounds, ok := obs.Find(fams, stages, compile.StageWeights)
	if !ok || w.Count != 2 {
		t.Fatalf("weights series %+v", w)
	}
	if p50 := 1000 * w.Quantile(bounds, 0.5); p50 < 2 || p50 > 5 {
		t.Errorf("weights p50 = %gms, want within (2, 5]", p50)
	}
	if q, _, ok := obs.Find(fams, stages, engine.StageQueue); !ok || q.Count != 1 {
		t.Errorf("queue series %+v", q)
	}
}

// TestSnapshotTierBreakdown: per-tier compile durations land in
// separate series of the tier histogram.
func TestSnapshotTierBreakdown(t *testing.T) {
	s := newStats()
	s.tiers.With(TierSmall).ObserveDuration(1 * time.Millisecond)
	s.tiers.With(TierDefault).ObserveDuration(40 * time.Millisecond)
	fams := s.reg.Snapshot()
	small, bounds, _ := obs.Find(fams, "bschedd_compile_duration_seconds", TierSmall)
	dflt, _, _ := obs.Find(fams, "bschedd_compile_duration_seconds", TierDefault)
	if small.Count != 1 || dflt.Count != 1 {
		t.Fatalf("tier counts small %d, default %d; want 1 each", small.Count, dflt.Count)
	}
	if sp, dp := small.Quantile(bounds, 0.5), dflt.Quantile(bounds, 0.5); sp >= dp {
		t.Errorf("small p50 %gs not below default p50 %gs", sp, dp)
	}
}

// TestStatsExposition: the registry renders the request-driven
// instruments under the documented metric names.
func TestStatsExposition(t *testing.T) {
	s := newStats()
	s.requests.Inc()
	s.rejected.Inc()
	s.degradations.Add(2)
	var b strings.Builder
	s.reg.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"bschedd_requests_total 1",
		`bschedd_responses_total{outcome="rejected"} 1`,
		"bschedd_degradations_total 2",
		"# TYPE bschedd_request_duration_seconds histogram",
		"# TYPE bschedd_stage_duration_seconds histogram",
		"# TYPE bschedd_compile_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// seriesKey names one series for comparing /stats with /metrics: the
// sample name, then its labels sorted by name, an "le" bound written as
// strconv writes floats.
func seriesKey(name string, labels map[string]string) string {
	names := make([]string, 0, len(labels))
	for l := range labels {
		names = append(names, l)
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range sortStrings(names) {
		v := labels[l]
		if l == "le" {
			f, _ := strconv.ParseFloat(v, 64)
			v = strconv.FormatFloat(f, 'g', -1, 64)
		}
		b.WriteString("|" + l + "=" + v)
	}
	return b.String()
}

// labelMap pairs a series' label names with its values.
func labelMap(names, values []string) map[string]string {
	m := make(map[string]string, len(names)+1)
	for i, l := range names {
		m[l] = values[i]
	}
	return m
}

// TestStatsMatchMetrics sends every compileCases request twice, then
// one batch of them all, and holds /stats to /metrics: both carry the
// same families, of the same kinds; each counter series, and each
// histogram series' cumulative bucket counts and count, in the /stats
// snapshot equals the same series parsed from /metrics; and /metrics
// has no counter or histogram series /stats lacks. Gauge values are
// sampled per scrape, so only their families are compared.
func TestStatsMatchMetrics(t *testing.T) {
	_, ts := startServer(t, Config{})
	var batch BatchRequest
	for _, c := range compileCases {
		for range 2 {
			if status, _, _ := postCompile(t, ts.URL, c.req); status != c.status {
				t.Fatalf("%s: status %d, want %d", c.name, status, c.status)
			}
		}
		batch.Programs = append(batch.Programs, c.req)
	}
	readBatch(t, ts.URL, batch)

	fams := getStats(t, ts.URL)
	expo := parseExposition(t, scrapeMetrics(t, ts.URL))
	if len(expo) != len(fams) {
		t.Errorf("/metrics has %d families, /stats %d", len(expo), len(fams))
	}
	for _, f := range fams {
		if e := expo[f.Name]; e == nil || e.typ != f.Kind {
			t.Errorf("/stats %s family %s is not one in /metrics", f.Kind, f.Name)
		}
	}
	metrics := map[string]float64{}
	for _, f := range expo {
		if f.typ == obs.KindGauge {
			continue
		}
		for _, smp := range f.samples {
			if !strings.HasSuffix(smp.name, "_sum") {
				metrics[seriesKey(smp.name, smp.labels)] = smp.value
			}
		}
	}
	check := func(key string, want float64) {
		t.Helper()
		got, ok := metrics[key]
		if !ok || got != want {
			t.Errorf("%s: /stats %g, /metrics %g (present %v)", key, want, got, ok)
		}
		delete(metrics, key)
	}
	for _, f := range fams {
		for _, s := range f.Series {
			labels := labelMap(f.Labels, s.LabelValues)
			switch f.Kind {
			case obs.KindCounter:
				check(seriesKey(f.Name, labels), s.Value)
			case obs.KindHistogram:
				var cum int64
				for i, c := range s.BucketCounts {
					cum += c
					labels["le"] = "+Inf"
					if i < len(f.Bounds) {
						labels["le"] = strconv.FormatFloat(f.Bounds[i], 'g', -1, 64)
					}
					check(seriesKey(f.Name+"_bucket", labels), float64(cum))
				}
				delete(labels, "le")
				check(seriesKey(f.Name+"_count", labels), float64(s.Count))
			}
		}
	}
	for key := range metrics {
		t.Errorf("/metrics series %s is not in /stats", key)
	}
	if statValue(fams, "bschedd_requests_total") == 0 || statValue(fams, "bschedd_batch_requests_total") != 1 {
		t.Fatal("the request sequence left no trace in /stats")
	}
}
