package server

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"

	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/obs"
)

// ---------------------------------------------------------------------
// Endpoint tests

// scrapeMetrics fetches url+"/metrics", holds it to the writer's
// grammar through obs.ParseText, and returns its families with the
// text, which alone carries the # EXEMPLAR comment.
func scrapeMetrics(t *testing.T, url string) ([]obs.FamilySnapshot, string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("GET %s/metrics: %v", url, err)
	}
	return fams, string(raw)
}

// getStats fetches GET /stats: the registry snapshot.
func getStats(t *testing.T, url string) []obs.FamilySnapshot {
	t.Helper()
	var fams []obs.FamilySnapshot
	if status := getJSON(t, url+"/stats", &fams); status != http.StatusOK {
		t.Fatalf("GET /stats: status %d", status)
	}
	return fams
}

// statValue returns the value of one series in a snapshot, 0 when the
// snapshot has no such series.
func statValue(fams []obs.FamilySnapshot, name string, labels ...string) float64 {
	s, _, _ := obs.Find(fams, name, labels...)
	return s.Value
}

// metricCatalog reads the metric catalog tables of docs/OBSERVABILITY.md
// (### Counters, ### Histograms, ### Gauges) and returns each
// documented family's type.
func metricCatalog(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{
		"### Counters":   "counter",
		"### Histograms": "histogram",
		"### Gauges":     "gauge",
	}
	catalog := map[string]string{}
	rows := map[string]int{}
	typ := ""
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "#") {
			typ = sections[strings.TrimSpace(line)]
			continue
		}
		if row, ok := strings.CutPrefix(line, "| `"); ok && typ != "" {
			name, _, _ := strings.Cut(row, "`")
			catalog[name] = typ
			rows[typ]++
		}
	}
	for heading, typ := range sections {
		if rows[typ] == 0 {
			t.Fatalf("docs/OBSERVABILITY.md: no families under %q", heading)
		}
	}
	return catalog
}

// TestMetricsExpositionFormat drives real traffic through the service
// and holds the whole /metrics payload to the writer's grammar through
// obs.ParseText (HELP and TYPE on every family, label escaping,
// histogram bucket invariants), then matches it one to one with the
// docs/OBSERVABILITY.md catalog.
func TestMetricsExpositionFormat(t *testing.T) {
	_, ts := startServer(t, Config{})
	// One miss, one hit, one client error, one per-tier small compile.
	postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	postCompile(t, ts.URL, CompileRequest{Program: "not ir"})
	postCompile(t, ts.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Budget: TierSmall}})

	fams, text := scrapeMetrics(t, ts.URL)
	// The request-duration histogram carries its last trace id as an
	// exemplar comment line — ignored by 0.0.4 parsers, chased by
	// humans.
	if !strings.Contains(text, "# EXEMPLAR bschedd_request_duration_seconds trace_id=\"") {
		t.Error("no EXEMPLAR comment for bschedd_request_duration_seconds")
	}
	// docs/OBSERVABILITY.md is the one list of exported families, in
	// both directions: every documented family is scraped with its
	// documented type (the persistent-cache, fleet and profiling
	// families included — they are registered whatever the flags, so
	// dashboards keep one shape), and nothing is scraped undocumented.
	catalog := metricCatalog(t)
	for _, f := range fams {
		if typ, ok := catalog[f.Name]; !ok {
			t.Errorf("family %s is missing from the docs/OBSERVABILITY.md catalog", f.Name)
		} else if f.Kind != typ {
			t.Errorf("%s has type %s, docs/OBSERVABILITY.md says %s", f.Name, f.Kind, typ)
		}
		if f.Help == "" {
			t.Errorf("%s has no HELP text", f.Name)
		}
		delete(catalog, f.Name)
		// build_info follows the info-gauge idiom: constant 1, identity
		// in the labels.
		if f.Name == "bschedd_build_info" && (len(f.Series) != 1 || f.Series[0].Value != 1 ||
			len(f.Labels) == 0 || f.Labels[0] != "go_version" || f.Series[0].LabelValues[0] == "") {
			t.Errorf("bschedd_build_info = %+v, want one series of 1 with a go_version", f)
		}
	}
	for name := range catalog {
		t.Errorf("documented family %s is not in /metrics", name)
	}
	// Spot-check a few values against what the traffic above implies.
	if hits, misses := statValue(fams, "bschedd_cache_events_total", "hit"), statValue(fams, "bschedd_cache_events_total", "miss"); hits != 1 || misses != 2 {
		t.Errorf("cache hits %g, misses %g; want 1 and 2", hits, misses)
	}
	// Every pipeline stage must have reported at least one sample.
	for _, stage := range []string{
		stageParse, stageLookup, engine.StageQueue, engine.StageCompile,
		compile.StageDeps, compile.StageWeights, compile.StageSchedule, compile.StageRegalloc,
	} {
		if s, _, _ := obs.Find(fams, "bschedd_stage_duration_seconds", stage); s.Count == 0 {
			t.Errorf("stage %q has no latency samples", stage)
		}
	}
}

// TestPerTierHistogramsSeparate: a small-tier request and a
// default-tier request must land in separate tier histograms, in both
// /metrics and /stats.
func TestPerTierHistogramsSeparate(t *testing.T) {
	_, ts := startServer(t, Config{})
	if status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Budget: TierSmall}}); status != http.StatusOK {
		t.Fatalf("small-tier compile: %d", status)
	}
	if status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram}); status != http.StatusOK {
		t.Fatalf("default-tier compile: %d", status)
	}

	metrics, _ := scrapeMetrics(t, ts.URL)
	for what, fams := range map[string][]obs.FamilySnapshot{"/stats": getStats(t, ts.URL), "/metrics": metrics} {
		for _, tier := range []string{TierSmall, TierDefault} {
			if h, _, _ := obs.Find(fams, "bschedd_compile_duration_seconds", tier); h.Count != 1 {
				t.Errorf("%s: %s tier count = %d, want 1", what, tier, h.Count)
			}
		}
	}
}

// TestRequestLogging: with a Logger configured, every request emits one
// structured line carrying the request ID from the X-Request-ID header
// and the compile annotations.
func TestRequestLogging(t *testing.T) {
	var buf strings.Builder
	var mu = &syncWriter{b: &buf}
	_, ts := startServer(t, Config{Logger: obs.NewLogger(mu, obs.FormatKV)})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("no X-Request-ID header")
	}
	postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	postCompile(t, ts.URL, CompileRequest{Program: demoProgram})

	out := mu.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 log lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "id="+id) || !strings.Contains(lines[0], "path=/healthz") {
		t.Errorf("healthz line missing id or path: %q", lines[0])
	}
	if !strings.Contains(lines[1], "cache=miss") || !strings.Contains(lines[1], "tier=default") ||
		!strings.Contains(lines[1], "status=200") || !strings.Contains(lines[1], "fingerprint=") {
		t.Errorf("compile line missing annotations: %q", lines[1])
	}
	if !strings.Contains(lines[2], "cache=hit") {
		t.Errorf("cached compile line missing cache=hit: %q", lines[2])
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, "ts=") || !strings.Contains(l, "event=http") {
			t.Errorf("line %d not a structured http event: %q", i, l)
		}
	}
}

// syncWriter serializes concurrent log writes for test inspection.
type syncWriter struct {
	mu sync.Mutex
	b  *strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}
