package server

import (
	"context"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/ir"
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

// TestSnapshotTierBreakdown: per-tier compile durations, which the
// engine's workers record, land in separate series of the tier
// histogram in the registry snapshot /stats serves.
func TestSnapshotTierBreakdown(t *testing.T) {
	s, ts := startServer(t, Config{})
	s.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
		d := 40 * time.Millisecond
		if opts.BlockBudget == compile.DefaultBlockBudget/16 { // the small tier
			d = time.Millisecond
		}
		time.Sleep(d)
		return compile.RunBlock(ctx, b, opts)
	}
	for _, tier := range []string{TierSmall, TierDefault} {
		if status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram,
			Options: RequestOptions{Budget: tier}}); status != http.StatusOK {
			t.Fatalf("%s-tier compile: %d", tier, status)
		}
	}
	fams := s.stats.reg.Snapshot()
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
	var b strings.Builder
	s.reg.WriteText(&b)
	fams, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if reqs, rej := statValue(fams, "bschedd_requests_total"), statValue(fams, "bschedd_responses_total", "rejected"); reqs != 1 || rej != 1 {
		t.Errorf("requests %g, rejected %g; want 1, 1", reqs, rej)
	}
	kinds := map[string]string{}
	for _, f := range fams {
		kinds[f.Name] = f.Kind
	}
	for _, name := range []string{"bschedd_request_duration_seconds", "bschedd_stage_duration_seconds"} {
		if kinds[name] != obs.KindHistogram {
			t.Errorf("%s renders as %q, want a histogram", name, kinds[name])
		}
	}
}

// TestStatsMatchMetrics sends every compileCases request twice, one
// request from a tenant whose name is not valid UTF-8, then one batch
// of them all, and holds /stats to /metrics: the /stats snapshot must
// equal the parsed /metrics, family for family, down to HELP text,
// label names, bucket bounds and every histogram's sum. Gauge values
// are sampled per scrape, so only their series' labels are compared.
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
	if resp, raw := postRaw(t, ts.URL, CompileRequest{Program: demoProgram}, map[string]string{"X-Tenant": "a\xffb"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("non-UTF-8 tenant: status %d\n%s", resp.StatusCode, raw)
	}
	readBatch(t, ts.URL, batch)

	stats := getStats(t, ts.URL)
	metrics, _ := scrapeMetrics(t, ts.URL)
	for _, fams := range [][]obs.FamilySnapshot{stats, metrics} {
		for i, f := range fams {
			if len(f.Series) == 0 {
				fams[i].Labels = nil // text cannot carry them
			}
			if f.Kind == obs.KindGauge {
				for j := range f.Series {
					f.Series[j].Value = 0
				}
			}
		}
	}
	if !reflect.DeepEqual(stats, metrics) {
		t.Error("/stats is not the parsed /metrics")
		inMetrics := map[string]obs.FamilySnapshot{}
		for _, f := range metrics {
			inMetrics[f.Name] = f
		}
		for _, f := range stats {
			if m := inMetrics[f.Name]; !reflect.DeepEqual(f, m) {
				t.Errorf("/stats %+v\n/metrics %+v", f, m)
			}
			delete(inMetrics, f.Name)
		}
		for name := range inMetrics {
			t.Errorf("/metrics family %s is not in /stats", name)
		}
	}
	if statValue(stats, "bschedd_requests_total") == 0 || statValue(stats, "bschedd_batch_requests_total") != 1 {
		t.Fatal("the request sequence left no trace in /stats")
	}
}

// TestProgramCacheEventsBySource: bschedd_cache_events_total counts
// every accepted program under its disposition, so the events sum to
// bschedd_requests_total: a program served wholly from disk after a
// restart counts disk, and one served by its ring owner counts peer.
func TestProgramCacheEventsBySource(t *testing.T) {
	events := func(s *Server) map[string]float64 {
		out := map[string]float64{}
		for _, src := range []engine.Source{engine.SourceMemory, engine.SourcePeer, engine.SourceDisk,
			engine.SourceCoalesced, engine.SourceMiss} {
			if v := metric(s, "bschedd_cache_events_total", src.String()); v != 0 {
				out[src.String()] = v
			}
		}
		return out
	}
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		s1, ts1 := startServer(t, Config{CacheDir: dir})
		if status, _, _ := postCompile(t, ts1.URL, CompileRequest{Program: demoProgram}); status != http.StatusOK {
			t.Fatalf("cold compile: status %d", status)
		}
		ts1.Close()
		s1.Close() // flushes the write-behind queue
		s2, ts2 := startServer(t, Config{CacheDir: dir})
		if status, resp, _ := postCompile(t, ts2.URL, CompileRequest{Program: demoProgram}); status != http.StatusOK || !resp.Cached {
			t.Fatalf("restarted compile: status %d, want a cached 200", status)
		}
		if got := events(s2); !reflect.DeepEqual(got, map[string]float64{"disk": 1}) {
			t.Fatalf("cache events %v after one disk-served program, want disk 1", got)
		}
	})
	t.Run("peer", func(t *testing.T) {
		nodes := startFleet(t, 2, Config{})
		prog := ""
		for i := 0; prog == ""; i++ {
			if i == 64 {
				t.Fatal("64 programs and node 1 owns none")
			}
			if owner, _ := nodes[0].s.cluster.Owner(blockKey(t, fleetProgram(i))); owner == nodes[1].url {
				prog = fleetProgram(i)
			}
		}
		if status, _, _ := postCompile(t, nodes[1].url, CompileRequest{Program: prog}); status != http.StatusOK {
			t.Fatalf("owner compile: status %d", status)
		}
		if status, _, _ := postCompile(t, nodes[0].url, CompileRequest{Program: prog}); status != http.StatusOK {
			t.Fatalf("peer-served compile: status %d", status)
		}
		if got := events(nodes[0].s); !reflect.DeepEqual(got, map[string]float64{"peer": 1}) {
			t.Fatalf("cache events %v after one peer-served program, want peer 1", got)
		}
	})
}
