package server

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/obs"
)

// ---------------------------------------------------------------------
// A hand-rolled Prometheus text exposition (version 0.0.4) parser —
// deliberately no external dependency — used to validate that GET
// /metrics emits well-formed output.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// One sample line: name, optional {labels}, value. Labels are
	// sub-parsed by parseLabels.
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

// expoSample is one parsed sample line.
type expoSample struct {
	name   string
	labels map[string]string
	value  float64
}

// expoFamily is one parsed metric family: its TYPE plus all samples.
type expoFamily struct {
	typ     string
	help    bool
	samples []expoSample
}

// parseExposition validates text against the exposition-format grammar
// and returns the families. Any violation fails the test immediately.
func parseExposition(t *testing.T, text string) map[string]*expoFamily {
	t.Helper()
	families := make(map[string]*expoFamily)
	var current string
	for ln, line := range strings.Split(text, "\n") {
		lineno := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", lineno, line)
			}
			f := families[parts[0]]
			if f == nil {
				f = &expoFamily{}
				families[parts[0]] = f
			}
			f.help = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
				t.Fatalf("line %d: malformed TYPE: %q", lineno, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", lineno, parts[1])
			}
			f := families[parts[0]]
			if f == nil {
				f = &expoFamily{}
				families[parts[0]] = f
			}
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", lineno, parts[0])
			}
			f.typ = parts[1]
			current = parts[0]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", lineno, line)
		}
		name, rawLabels, rawValue := m[1], m[2], m[3]
		value, err := strconv.ParseFloat(rawValue, 64)
		if err != nil && rawValue != "+Inf" && rawValue != "-Inf" && rawValue != "NaN" {
			t.Fatalf("line %d: unparseable value %q", lineno, rawValue)
		}
		// A sample must belong to the family declared by the preceding
		// TYPE line (histograms contribute _bucket/_sum/_count series).
		base := name
		fam := families[base]
		if fam == nil {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				trimmed := strings.TrimSuffix(name, suffix)
				if trimmed != name && families[trimmed] != nil && families[trimmed].typ == "histogram" {
					base, fam = trimmed, families[trimmed]
					break
				}
			}
		}
		if fam == nil || fam.typ == "" {
			t.Fatalf("line %d: sample %q without a preceding TYPE declaration", lineno, name)
		}
		if base != current {
			t.Fatalf("line %d: sample %q outside its family block (current %q)", lineno, name, current)
		}
		fam.samples = append(fam.samples, expoSample{
			name: name, labels: parseLabels(t, lineno, rawLabels), value: value,
		})
	}
	for name, f := range families {
		if !f.help || f.typ == "" {
			t.Errorf("family %s missing HELP or TYPE", name)
		}
		if f.typ != "gauge" && len(f.samples) == 0 {
			// Counters/histograms may legitimately be empty vecs, fine.
			continue
		}
	}
	checkHistograms(t, families)
	return families
}

// parseLabels validates one {k="v",...} group.
func parseLabels(t *testing.T, lineno int, raw string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	if raw == "" {
		return out
	}
	body := strings.TrimSuffix(strings.TrimPrefix(raw, "{"), "}")
	for _, pair := range splitLabelPairs(body) {
		eq := strings.Index(pair, "=")
		if eq < 0 {
			t.Fatalf("line %d: malformed label pair %q", lineno, pair)
		}
		k, v := pair[:eq], pair[eq+1:]
		if !labelNameRe.MatchString(k) {
			t.Fatalf("line %d: invalid label name %q", lineno, k)
		}
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			t.Fatalf("line %d: unquoted label value %q", lineno, v)
		}
		if _, ok := out[k]; ok {
			t.Fatalf("line %d: duplicate label %q", lineno, k)
		}
		out[k] = unescapeLabel(v[1 : len(v)-1])
	}
	return out
}

// splitLabelPairs splits on commas that are not inside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, c := range s {
		switch {
		case escaped:
			escaped = false
		case c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
			continue
		}
		cur.WriteRune(c)
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func unescapeLabel(s string) string {
	return strings.NewReplacer(`\\`, "\\", `\"`, `"`, `\n`, "\n").Replace(s)
}

// checkHistograms asserts every histogram family has cumulative,
// non-decreasing buckets ending in le="+Inf" whose count equals _count,
// per label set.
func checkHistograms(t *testing.T, families map[string]*expoFamily) {
	t.Helper()
	for name, f := range families {
		if f.typ != "histogram" {
			continue
		}
		type series struct {
			last    float64
			lastLe  float64
			infSeen bool
			inf     float64
			count   float64
		}
		byLabels := make(map[string]*series)
		keyOf := func(labels map[string]string) string {
			var parts []string
			for k, v := range labels {
				if k != "le" {
					parts = append(parts, k+"="+v)
				}
			}
			// Map order doesn't matter for grouping identity within one
			// family because every series carries the same label names.
			return strings.Join(sortStrings(parts), ",")
		}
		for _, smp := range f.samples {
			key := keyOf(smp.labels)
			st := byLabels[key]
			if st == nil {
				st = &series{lastLe: -1}
				byLabels[key] = st
			}
			switch {
			case strings.HasSuffix(smp.name, "_bucket"):
				le := smp.labels["le"]
				if le == "" {
					t.Errorf("%s: bucket without le label", name)
					continue
				}
				if le == "+Inf" {
					st.infSeen, st.inf = true, smp.value
				} else {
					bound, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Errorf("%s: unparseable le %q", name, le)
					}
					if bound <= st.lastLe {
						t.Errorf("%s{%s}: bucket bounds not increasing (%g after %g)", name, key, bound, st.lastLe)
					}
					st.lastLe = bound
				}
				if smp.value < st.last {
					t.Errorf("%s{%s}: cumulative bucket counts decreased (%g after %g)", name, key, smp.value, st.last)
				}
				st.last = smp.value
			case strings.HasSuffix(smp.name, "_count"):
				st.count = smp.value
			}
		}
		for key, st := range byLabels {
			if !st.infSeen {
				t.Errorf("%s{%s}: no le=\"+Inf\" bucket", name, key)
			} else if st.inf != st.count {
				t.Errorf("%s{%s}: +Inf bucket %g != _count %g", name, key, st.inf, st.count)
			}
		}
	}
}

func sortStrings(s []string) []string {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

// ---------------------------------------------------------------------
// Endpoint tests

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
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

// metricValue returns the value of one series in a /metrics scrape,
// the series written as it appears before its value (name plus label
// set). A missing series fails the test.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if raw, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, raw)
			}
			return v
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
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
// and validates the whole /metrics payload against the hand-rolled
// exposition parser and obs.ValidateExposition: grammar, HELP/TYPE
// coverage, histogram bucket invariants, and a one-to-one match with
// the docs/OBSERVABILITY.md catalog.
func TestMetricsExpositionFormat(t *testing.T) {
	_, ts := startServer(t, Config{})
	// One miss, one hit, one client error, one per-tier small compile.
	postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	postCompile(t, ts.URL, CompileRequest{Program: "not ir"})
	postCompile(t, ts.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Budget: TierSmall}})

	text := scrapeMetrics(t, ts.URL)
	families := parseExposition(t, text)
	// The request-duration histogram carries its last trace id as an
	// exemplar comment line — ignored by 0.0.4 parsers (this one
	// included), chased by humans.
	if !strings.Contains(text, "# EXEMPLAR bschedd_request_duration_seconds trace_id=\"") {
		t.Error("no EXEMPLAR comment for bschedd_request_duration_seconds")
	}
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition format violation: %v", err)
	}
	// docs/OBSERVABILITY.md is the one list of exported families, in
	// both directions: every documented family is scraped with its
	// documented type (the persistent-cache, fleet and profiling
	// families included — they are registered whatever the flags, so
	// dashboards keep one shape), and nothing is scraped undocumented.
	catalog := metricCatalog(t)
	for name, typ := range catalog {
		f := families[name]
		if f == nil || f.typ == "" {
			t.Errorf("documented family %s has no # TYPE line in /metrics", name)
		} else if f.typ != typ {
			t.Errorf("%s has type %s, docs/OBSERVABILITY.md says %s", name, f.typ, typ)
		}
	}
	for name := range families {
		if _, ok := catalog[name]; !ok {
			t.Errorf("family %s is missing from the docs/OBSERVABILITY.md catalog", name)
		}
	}
	// build_info follows the info-gauge idiom: constant 1, identity in
	// the labels.
	if f := families["bschedd_build_info"]; f != nil {
		if len(f.samples) != 1 || f.samples[0].value != 1 {
			t.Errorf("bschedd_build_info samples = %+v, want one sample of 1", f.samples)
		} else if f.samples[0].labels["go_version"] == "" {
			t.Error("bschedd_build_info missing go_version label")
		}
	}
	// Spot-check a few values against what the traffic above implies.
	for _, smp := range families["bschedd_cache_events_total"].samples {
		switch smp.labels["event"] {
		case "hit":
			if smp.value != 1 {
				t.Errorf("cache hits = %g, want 1", smp.value)
			}
		case "miss":
			if smp.value != 2 {
				t.Errorf("cache misses = %g, want 2", smp.value)
			}
		}
	}
	// Every pipeline stage must have reported at least one sample.
	stages := make(map[string]bool)
	for _, smp := range families["bschedd_stage_duration_seconds"].samples {
		if strings.HasSuffix(smp.name, "_count") && smp.value > 0 {
			stages[smp.labels["stage"]] = true
		}
	}
	for _, want := range []string{
		stageParse, stageLookup, engine.StageQueue, engine.StageCompile,
		compile.StageDeps, compile.StageWeights, compile.StageSchedule, compile.StageRegalloc,
	} {
		if !stages[want] {
			t.Errorf("stage %q has no latency samples (got %v)", want, stages)
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

	fams := getStats(t, ts.URL)
	for _, tier := range []string{TierSmall, TierDefault} {
		if h, _, _ := obs.Find(fams, "bschedd_compile_duration_seconds", tier); h.Count != 1 {
			t.Errorf("%s tier count = %d, want 1", tier, h.Count)
		}
	}

	families := parseExposition(t, scrapeMetrics(t, ts.URL))
	counts := map[string]float64{}
	for _, smp := range families["bschedd_compile_duration_seconds"].samples {
		if strings.HasSuffix(smp.name, "_count") {
			counts[smp.labels["tier"]] = smp.value
		}
	}
	if counts[TierSmall] != 1 || counts[TierDefault] != 1 {
		t.Errorf("per-tier _count %v, want small=1 default=1", counts)
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
