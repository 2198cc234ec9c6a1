package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/ir"
	"bsched/internal/obs"
)

// getJSON GETs a URL and decodes the body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s (%d): %v\n%s", url, resp.StatusCode, err, raw)
		}
	}
	return resp.StatusCode
}

// TestTraceEndToEnd: one compile request yields a retrievable trace
// whose span tree covers the whole request path — the root request
// span, parse, lookup, queue and compile spans, and inside
// compile one span per pipeline stage per block (deps, weights,
// schedule twice for the two passes; regalloc once).
func TestTraceEndToEnd(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, TraceSampleEvery: 1})
	body, _ := json.Marshal(CompileRequest{Program: demoProgram})
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-ID")
	if len(traceID) != 32 {
		t.Fatalf("X-Trace-ID = %q, want 32 hex digits", traceID)
	}

	var tree obs.TraceView
	if code := getJSON(t, ts.URL+"/v1/traces/"+traceID+"?format=tree", &tree); code != http.StatusOK {
		t.Fatalf("GET trace tree: status %d", code)
	}
	if tree.ID != traceID {
		t.Fatalf("tree id = %q, want %q", tree.ID, traceID)
	}
	if tree.Status != "ok" {
		t.Fatalf("tree status = %q, want ok", tree.Status)
	}
	byName := map[string][]obs.SpanView{}
	for _, sp := range tree.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	if len(byName["POST /v1/compile"]) != 1 {
		t.Fatalf("want exactly one root span, got %v", byName)
	}
	root := byName["POST /v1/compile"][0]
	if root.Parent != "" {
		t.Errorf("root span has parent %q", root.Parent)
	}
	for _, name := range []string{"parse", "lookup", "queue", "compile"} {
		spans := byName[name]
		if len(spans) != 1 {
			t.Fatalf("want one %q span, got %d", name, len(spans))
		}
		if spans[0].Parent != root.ID {
			t.Errorf("%q span parented on %q, want root %q", name, spans[0].Parent, root.ID)
		}
	}
	compileSpan := byName["compile"][0]
	// The two scheduling passes run deps, weights and schedule once each;
	// regalloc runs once between them.
	for name, want := range map[string]int{"deps": 2, "weights": 2, "schedule": 2, "regalloc": 1} {
		spans := byName[name]
		if len(spans) != want {
			t.Fatalf("want %d %q stage spans, got %d", want, name, len(spans))
		}
		for _, sp := range spans {
			if sp.Parent != compileSpan.ID {
				t.Errorf("%q span parented on %q, want compile span %q", name, sp.Parent, compileSpan.ID)
			}
			var hasBlock bool
			for _, a := range sp.Attrs {
				hasBlock = hasBlock || a.Key == "block"
			}
			if !hasBlock {
				t.Errorf("%q span missing block attr", name)
			}
		}
	}
	var evs []string
	for _, e := range root.Events {
		evs = append(evs, e.Name)
	}
	if !contains(evs, "cache-miss") {
		t.Errorf("root events %v missing cache-miss", evs)
	}

	// The default rendering is Chrome trace-event JSON: every span shows
	// up as a complete ("X") event and the envelope names the trace.
	var chrome struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if code := getJSON(t, ts.URL+"/v1/traces/"+traceID, &chrome); code != http.StatusOK {
		t.Fatalf("GET chrome trace: status %d", code)
	}
	if chrome.OtherData["trace_id"] != traceID {
		t.Errorf("otherData.trace_id = %v, want %q", chrome.OtherData["trace_id"], traceID)
	}
	complete := map[string]int{}
	for _, e := range chrome.TraceEvents {
		if e.Phase == "X" {
			complete[e.Name]++
		}
	}
	for _, name := range []string{"POST /v1/compile", "parse", "lookup", "queue", "compile", "deps", "schedule", "regalloc"} {
		if complete[name] == 0 {
			t.Errorf("chrome trace has no %q complete event", name)
		}
	}

	// The trace index lists it (the GETs above traced themselves too, so
	// search rather than assume position), and the request-duration
	// exemplar in /metrics names it.
	var index struct {
		Traces []obs.TraceIndexEntry `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/v1/traces", &index); code != http.StatusOK {
		t.Fatalf("GET trace index: status %d", code)
	}
	indexed := false
	for _, e := range index.Traces {
		indexed = indexed || e.ID == traceID
	}
	if !indexed {
		t.Errorf("trace index %v missing %q", index.Traces, traceID)
	}
	exemplar := `# EXEMPLAR bschedd_request_duration_seconds trace_id="` + traceID + `" `
	if _, text := scrapeMetrics(t, ts.URL); !strings.Contains(text, exemplar) {
		t.Errorf("/metrics lacks %q", exemplar)
	}
	if statValue(getStats(t, ts.URL), "bschedd_traces_retained") == 0 {
		t.Error("stats bschedd_traces_retained = 0")
	}

	// A two-program batch records the same edge spans per program, each
	// parented on the batch's root.
	bresp := postBatch(t, context.Background(), ts.URL, BatchRequest{Programs: []CompileRequest{
		{Program: batchFunc("p", batchBlock("a", 1))}, {Program: batchFunc("q", batchBlock("b", 2))},
	}})
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	var btree obs.TraceView
	if code := getJSON(t, ts.URL+"/v1/traces/"+bresp.Header.Get("X-Trace-ID")+"?format=tree", &btree); code != http.StatusOK {
		t.Fatalf("GET batch trace tree: status %d", code)
	}
	byName = map[string][]obs.SpanView{}
	for _, sp := range btree.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	if len(byName["POST /v1/compile/batch"]) != 1 {
		t.Fatalf("want exactly one batch root span, got %v", byName)
	}
	broot := byName["POST /v1/compile/batch"][0]
	for _, name := range []string{"parse", "lookup", "queue", "compile"} {
		spans := byName[name]
		if len(spans) != 2 {
			t.Errorf("batch trace: want two %q spans, got %d", name, len(spans))
		}
		for _, sp := range spans {
			if sp.Parent != broot.ID {
				t.Errorf("batch %q span parented on %q, want root %q", name, sp.Parent, broot.ID)
			}
		}
	}
}

// TestBatchTraceMarks: a batch trace is kept by tail-based retention
// for what it streams. A block frame carrying degradations marks it
// degraded, a cached block included; an error frame marks it errored,
// whatever stage the program failed at.
func TestBatchTraceMarks(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, TraceSampleEvery: 1 << 20})
	s.compileFn = func(ctx context.Context, b *ir.Block, o compile.Options) (*compile.BlockResult, error) {
		br, err := compile.RunBlock(ctx, b, o)
		if err == nil {
			// A budget degradation is deterministic, so it is cached.
			br.Degradations = append(br.Degradations, compile.Event{Block: "body", Pass: 1,
				Stage: "weights", From: compile.RungPolicyPrefix + "balanced", To: compile.RungFixedLat,
				Reason: "budget exhausted"})
		}
		return br, err
	}
	if status, resp, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram}); status != http.StatusOK || len(resp.Degradations) != 1 {
		t.Fatalf("degraded compile: status %d, response %+v", status, resp)
	}
	batchTrace := func(req CompileRequest) obs.TraceView {
		t.Helper()
		resp := postBatch(t, context.Background(), ts.URL, BatchRequest{Programs: []CompileRequest{req}})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		var tree obs.TraceView
		if code := getJSON(t, ts.URL+"/v1/traces/"+resp.Header.Get("X-Trace-ID")+"?format=tree", &tree); code != http.StatusOK {
			t.Fatalf("batch trace not retained: status %d", code)
		}
		return tree
	}
	if tree := batchTrace(CompileRequest{Program: demoProgram}); !tree.Degraded || tree.Status != "ok" {
		t.Errorf("batch of a cached degraded block: trace degraded=%v status=%q, want true/ok", tree.Degraded, tree.Status)
	}
	if tree := batchTrace(CompileRequest{Program: demoProgram, Priority: "urgent"}); tree.Status != "error" {
		t.Errorf("batch with a bad-priority program: trace status %q, want error", tree.Status)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestTraceparentPropagation: a valid incoming W3C traceparent header
// pins the trace id; malformed ones are ignored and a fresh id minted.
func TestTraceparentPropagation(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, TraceSampleEvery: 1})
	const incoming = "4bf92f3577b34da6a3ce929d0e0e4736"
	cases := []struct {
		header string
		honor  bool
	}{
		{"00-" + incoming + "-00f067aa0ba902b7-01", true},
		{"cd-" + incoming + "-00f067aa0ba902b7-01-extra", true}, // future version
		{"00-" + strings.ToUpper(incoming) + "-00f067aa0ba902b7-01", false},
		{"00-" + incoming + "-0000000000000000-01", false},
		{"ff-" + incoming + "-00f067aa0ba902b7-01", false},
		{"garbage", false},
		{"", false},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if tc.header != "" {
			req.Header.Set("traceparent", tc.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get("X-Trace-ID")
		if tc.honor && got != incoming {
			t.Errorf("traceparent %q: X-Trace-ID = %q, want honored %q", tc.header, got, incoming)
		}
		if !tc.honor {
			if got == incoming {
				t.Errorf("traceparent %q: malformed header was honored", tc.header)
			}
			if len(got) != 32 {
				t.Errorf("traceparent %q: fresh X-Trace-ID = %q not 32 hex", tc.header, got)
			}
		}
	}
}

// TestErrorTraceAlwaysRetained: with healthy-trace sampling effectively
// off, an erroring request's trace must still be retrievable — errors
// bypass sampling entirely (tail-based retention).
func TestErrorTraceAlwaysRetained(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, TraceSampleEvery: 1 << 20})
	status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	if status != http.StatusOK {
		t.Fatalf("healthy compile: status %d", status)
	}

	body, _ := json.Marshal(CompileRequest{Program: "func broken\nnot ir at all\n"})
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken compile: status %d, want 400", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-ID")

	var tree obs.TraceView
	if code := getJSON(t, ts.URL+"/v1/traces/"+traceID+"?format=tree", &tree); code != http.StatusOK {
		t.Fatalf("erroring request's trace not retained: status %d", code)
	}
	if tree.Status != "error" {
		t.Errorf("trace status = %q, want error", tree.Status)
	}
	var errIndex struct {
		Traces []obs.TraceIndexEntry `json:"traces"`
	}
	getJSON(t, ts.URL+"/v1/traces?status=error", &errIndex)
	found := false
	for _, e := range errIndex.Traces {
		if e.ID == traceID {
			found = true
			if e.Retention != obs.RetentionError {
				t.Errorf("retention = %q, want %q", e.Retention, obs.RetentionError)
			}
		}
		if e.Status != "error" {
			t.Errorf("status=error filter leaked %q trace %s", e.Status, e.ID)
		}
	}
	if !found {
		t.Errorf("trace %s missing from ?status=error index", traceID)
	}
}

// TestTracingDisabled: TraceCapacity < 0 switches tracing off — no
// X-Trace-ID header, 404 from the trace endpoints, and the request path
// must not mind the nil tracer.
func TestTracingDisabled(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, TraceCapacity: -1})
	status, resp, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	if status != http.StatusOK || resp == nil {
		t.Fatalf("compile with tracing disabled: status %d", status)
	}
	r, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/traces with tracing disabled: status %d, want 404", r.StatusCode)
	}
}

// TestStageHistogramsUntraced: with tracing off every stage still
// samples. One cold single-block compile adds one parse and one lookup
// sample, one queue sample (the worker ends the queue stage the server
// opened), one compile sample, and, through the engine's SpanObserver,
// one deps/weights/schedule sample per scheduling pass and one
// regalloc sample.
func TestStageHistogramsUntraced(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, TraceCapacity: -1})
	want := map[string]int64{
		stageParse: 1, stageLookup: 1, engine.StageQueue: 1, engine.StageCompile: 1,
		compile.StageDeps: 2, compile.StageWeights: 2, compile.StageSchedule: 2, compile.StageRegalloc: 1,
	}
	counts := func() map[string]int64 {
		m := make(map[string]int64, len(want))
		for stage := range want {
			m[stage] = s.stats.stages.With(stage).Count()
		}
		return m
	}
	before := counts()
	status, resp, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	if status != http.StatusOK || resp == nil || resp.Cached {
		t.Fatalf("cold compile with tracing disabled: status %d, resp %+v", status, resp)
	}
	after := counts()
	for stage, n := range want {
		if got := after[stage] - before[stage]; got != n {
			t.Errorf("stage %s: %d new samples, want %d", stage, got, n)
		}
	}

	// A two-program batch of two cold one-block programs adds the same
	// samples per program.
	before = after
	for _, f := range readBatch(t, ts.URL, BatchRequest{Programs: []CompileRequest{
		{Program: batchFunc("p", batchBlock("a", 1))}, {Program: batchFunc("q", batchBlock("b", 2))},
	}}) {
		if f.Type == "error" {
			t.Fatalf("cold batch streamed an error: %+v", f)
		}
	}
	after = counts()
	for stage, n := range want {
		if got := after[stage] - before[stage]; got != 2*n {
			t.Errorf("batch stage %s: %d new samples, want %d", stage, got, 2*n)
		}
	}
}

// TestStageSamplesMatchSpans: each stage is timed once, so for every
// stage label with samples the stage histogram's count equals the
// number of spans of that name in the retained traces, and its sum
// equals their summed durations. The traffic reaches every stage a
// standalone node has: a cold compile and its hit, a two-program cold
// batch, a wait coalesced on a gated leader, and a disk hit after a
// restart on the same cache directory.
func TestStageSamplesMatchSpans(t *testing.T) {
	cfg := Config{Workers: 1, TraceSampleEvery: 1, TraceCapacity: 1024, CacheDir: t.TempDir()}
	s, ts := startServer(t, cfg)
	for range 2 {
		if status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram}); status != http.StatusOK {
			t.Fatalf("compile: status %d", status)
		}
	}
	for _, f := range readBatch(t, ts.URL, BatchRequest{Programs: []CompileRequest{
		{Program: batchFunc("p", batchBlock("a", 1))}, {Program: batchFunc("q", batchBlock("b", 2))},
	}}) {
		if f.Type == "error" {
			t.Fatalf("cold batch streamed an error: %+v", f)
		}
	}
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // runs before the server's Close, which waits for the gated worker
	running := make(chan struct{}, 1)
	s.compileFn = func(ctx context.Context, b *ir.Block, o compile.Options) (*compile.BlockResult, error) {
		select {
		case running <- struct{}{}:
		default:
		}
		<-gate
		return compile.RunBlock(ctx, b, o)
	}
	statuses := make(chan int, 2)
	body, _ := json.Marshal(CompileRequest{Program: demoVariant(1)})
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go post()
	<-running // the leader holds the entry in flight
	go post()
	for deadline := time.Now().Add(5 * time.Second); s.stats.blockCoalesced.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second request never coalesced on the gated leader")
		}
	}
	release()
	for range 2 {
		if status := <-statuses; status != http.StatusOK {
			t.Fatalf("gated pair: status %d", status)
		}
	}
	checkStageSpans(t, s, 5, stageParse, stageLookup, stageDisk, engine.StageQueue, stageCoalesced,
		engine.StageCompile, compile.StageDeps, compile.StageWeights, compile.StageSchedule, compile.StageRegalloc)
	ts.Close()
	s.Close()

	s2, ts2 := startServer(t, cfg)
	if status, resp, _ := postCompile(t, ts2.URL, CompileRequest{Program: demoProgram}); status != http.StatusOK || !resp.Cached {
		t.Fatalf("compile after restart: status %d, want a disk hit", status)
	}
	checkStageSpans(t, s2, 1, stageParse, stageLookup, stageDisk)
}

// The stages the engine times, as the stage tests name them.
const (
	stageDisk      = engine.StageDisk
	stagePeer      = engine.StagePeer
	stageCoalesced = engine.StageCoalesced
)

// checkStageSpans compares s's stage histogram with the spans of its
// retained traces, once n traces are retained: per stage label, as many
// spans as samples, and the same summed duration within 1ns per sample.
// Each stage in want must have samples.
func checkStageSpans(t *testing.T, s *Server, n int, want ...string) {
	t.Helper()
	store := s.tracer.Store()
	// A response can reach the client just before its trace is stored.
	for deadline := time.Now().Add(5 * time.Second); store.Len() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d traces retained, want %d", store.Len(), n)
		}
	}
	spans := map[string]int64{}
	durations := map[string]time.Duration{}
	for _, e := range store.List() {
		id, _ := obs.ParseTraceID(e.ID)
		tr, ok := store.Get(id)
		if !ok {
			t.Fatalf("listed trace %s not retained", e.ID)
		}
		for _, sp := range tr.View().Spans {
			spans[sp.Name]++
			durations[sp.Name] += sp.Duration
		}
	}
	var family obs.FamilySnapshot
	for _, f := range s.stats.reg.Snapshot() {
		if f.Name == "bschedd_stage_duration_seconds" {
			family = f
		}
	}
	sampled := map[string]bool{}
	for _, series := range family.Series {
		stage := series.LabelValues[0]
		sampled[stage] = series.Count > 0
		if spans[stage] != series.Count {
			t.Errorf("stage %s: %d samples, %d spans", stage, series.Count, spans[stage])
		}
		if diff := series.Sum*1e9 - float64(durations[stage]); diff > float64(series.Count) || -diff > float64(series.Count) {
			t.Errorf("stage %s: samples sum to %gs, spans to %v", stage, series.Sum, durations[stage])
		}
	}
	for _, stage := range want {
		if !sampled[stage] {
			t.Errorf("stage %s has no samples", stage)
		}
	}
}

// TestPanicLoggsActualStatus: the access-log middleware must log the
// status the client actually observed on a panic — 500 when the
// handler dies before writing, the written status otherwise — never
// statusWriter's 200-by-default.
func TestPanicLogsActualStatus(t *testing.T) {
	var buf strings.Builder
	sw := &syncWriter{b: &buf}
	s, err := New(Config{Workers: 1, Logger: obs.NewLogger(sw, obs.FormatKV)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	mux.HandleFunc("/teapot-boom", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		panic("kaboom after write")
	})
	ts := httptest.NewServer(s.logged(mux))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/teapot-boom")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("post-write panic: status %d, want 418", resp.StatusCode)
	}

	lines := strings.Split(strings.TrimSpace(sw.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 log lines, got %d:\n%s", len(lines), sw.String())
	}
	if !strings.Contains(lines[0], "status=500") || !strings.Contains(lines[0], "panic=kaboom") {
		t.Errorf("panic line wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], fmt.Sprintf("status=%d", http.StatusTeapot)) {
		t.Errorf("post-write panic line wrong: %q", lines[1])
	}

	// Both panicking requests erred, so both traces are retained.
	var errCount int
	for _, e := range s.tracer.Store().List() {
		if e.Status == "error" {
			errCount++
		}
	}
	if errCount != 2 {
		t.Errorf("want 2 retained error traces, got %d", errCount)
	}
}

// TestNotFoundIsNotAnErrorTrace: a 404 is a routine answer, not an error
// trace, so a stream of peer-lookup misses cannot push a real failure
// out of the error region: after one 422 compile and 150 lookups of
// absent keys, more than the region holds, the 422's trace is still
// retained as an error and no lookup trace is.
func TestNotFoundIsNotAnErrorTrace(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, _ := postRaw(t, ts.URL, CompileRequest{Program: hardErrorProgram}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("compile: status %d, want 422", resp.StatusCode)
	}
	failed := resp.Header.Get("X-Trace-ID")
	for i := range 150 {
		key := engine.Key{Block: uint64(i) + 1, Opts: 1}
		if code := getJSON(t, ts.URL+"/v1/peer/lookup/"+key.String(), nil); code != http.StatusNotFound {
			t.Fatalf("lookup %d: status %d, want 404", i, code)
		}
	}
	var idx struct {
		Traces []obs.TraceIndexEntry `json:"traces"`
	}
	getJSON(t, ts.URL+"/v1/traces", &idx)
	kept := false
	for _, e := range idx.Traces {
		if e.ID == failed {
			kept = e.Retention == obs.RetentionError
		}
		if strings.HasPrefix(e.Name, "GET /v1/peer/lookup/") && e.Retention == obs.RetentionError {
			t.Fatalf("lookup trace %s retained as %s", e.ID, e.Retention)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/traces/"+failed+"?format=tree", nil); !kept || code != http.StatusOK {
		t.Fatalf("the 422's trace %s (status %d) is not retained as an error after 150 lookup misses", failed, code)
	}
}
