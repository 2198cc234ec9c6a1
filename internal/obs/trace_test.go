package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func finishedTrace(tr *Tracer, name string, opts ...func(*Trace)) *Trace {
	t := tr.Start(name, RequestID(), "")
	for _, o := range opts {
		o(t)
	}
	tr.Finish(t)
	return t
}

func TestTraceparentParse(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tid, sid, ok := ParseTraceparent(valid)
	if !ok {
		t.Fatalf("valid traceparent rejected: %q", valid)
	}
	if tid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" || sid.String() != "00f067aa0ba902b7" {
		t.Errorf("parsed %s / %s", tid, sid)
	}
	if got := FormatTraceparent(tid, sid); got != valid {
		t.Errorf("FormatTraceparent = %q, want %q", got, valid)
	}

	malformed := []string{
		"",
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-",    // empty flags
		"0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // short version
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // reserved version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",  // non-hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad separator
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // trailing junk
	}
	for _, h := range malformed {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("malformed traceparent accepted: %q", h)
		}
	}
	// A future version with appended fields still parses its 00-shaped
	// prefix, per the W3C forward-compat rule.
	if _, _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("future-version traceparent with extra fields rejected")
	}
}

func TestTracerHonorsIncomingTraceparent(t *testing.T) {
	tr := NewTracer(NewTraceStore(16, 1))
	in := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc := tr.Start("POST /v1/compile", "req-1", in)
	if tc.ID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("incoming trace id not honored: %s", tc.ID)
	}
	if !tc.Remote || tc.RemoteParent.String() != "00f067aa0ba902b7" {
		t.Errorf("remote parent not recorded: remote=%v parent=%s", tc.Remote, tc.RemoteParent)
	}
	if got := tc.Root().Parent; got != tc.RemoteParent {
		t.Errorf("root span parent = %s, want remote parent", got)
	}

	// Malformed header → fresh id, no remote parent.
	tc2 := tr.Start("POST /v1/compile", "req-2", strings.ToUpper(in))
	if tc2.Remote || tc2.ID.IsZero() || tc2.ID.String() == "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("malformed header must mint a fresh local trace, got remote=%v id=%s", tc2.Remote, tc2.ID)
	}
	if !tc2.Root().Parent.IsZero() {
		t.Errorf("fresh trace root must have no parent, got %s", tc2.Root().Parent)
	}
}

func TestSpanTree(t *testing.T) {
	tr := NewTracer(NewTraceStore(16, 1))
	tc := tr.Start("req", "id-1", "")
	parse := tc.StartSpan(nil, "parse")
	parse.SetAttr("bytes", "100")
	parse.End()
	stages := NewRegistry().HistogramVec("stages", "h", nil, "stage")
	compileStage := stages.StartStage(tc, nil, "compile")
	compile := compileStage.Span()
	stage := stages.StageAt(tc, compile, "weights", time.Now().Add(-time.Millisecond), time.Millisecond)
	stage.SetAttr("block", "b0")
	compile.Event("cache-miss")
	compileStage.End(errors.New("boom"))
	tr.Finish(tc)

	v := tc.View()
	if v.Status != "error" {
		t.Errorf("trace with an erroring span has status %q, want error", v.Status)
	}
	byName := map[string]SpanView{}
	for _, s := range v.Spans {
		byName[s.Name] = s
	}
	if len(v.Spans) != 4 {
		t.Fatalf("want 4 spans (root, parse, compile, weights), got %d", len(v.Spans))
	}
	root := byName["req"]
	if root.Parent != "" {
		t.Errorf("root has parent %q", root.Parent)
	}
	if byName["parse"].Parent != root.ID || byName["compile"].Parent != root.ID {
		t.Error("parse/compile spans must parent onto the root")
	}
	if byName["weights"].Parent != byName["compile"].ID {
		t.Error("stage span must parent onto the compile span")
	}
	if byName["weights"].Attrs[0] != (Attr{Key: "block", Value: "b0"}) {
		t.Errorf("stage attrs = %v", byName["weights"].Attrs)
	}
	if byName["compile"].Err != "boom" {
		t.Errorf("compile span err = %q", byName["compile"].Err)
	}
	if len(byName["compile"].Events) != 1 || byName["compile"].Events[0].Name != "cache-miss" {
		t.Errorf("compile span events = %v", byName["compile"].Events)
	}
	if root.Duration <= 0 {
		t.Error("finished root span has zero duration")
	}
}

func TestNilTracerAndSpansAreInert(t *testing.T) {
	var tr *Tracer
	tc := tr.Start("req", "id", "")
	if tc != nil {
		t.Fatal("nil tracer must produce nil traces")
	}
	// All of these must be no-ops, not panics.
	sp := tc.StartSpan(nil, "x")
	sp.SetAttr("k", "v")
	sp.Event("e")
	sp.End()
	tc.SpanAt(nil, "y", time.Now(), 0)
	tc.SetError()
	tc.SetDegraded()
	if got := tr.Finish(tc); got != RetentionDropped {
		t.Errorf("nil finish = %q", got)
	}
	if tc.Root() != nil {
		t.Error("nil trace root must be nil")
	}
}

// TestTailRetentionAlwaysKeepsErrorsAndDegraded floods the store with
// healthy fast traces and asserts the one erroring and the one degraded
// trace are still retrievable — the acceptance guarantee of the
// tail-based sampler.
func TestTailRetentionAlwaysKeepsErrorsAndDegraded(t *testing.T) {
	store := NewTraceStore(16, 2)
	tr := NewTracer(store)

	errTrace := finishedTrace(tr, "err", func(tc *Trace) { tc.SetError() })
	degTrace := finishedTrace(tr, "deg", func(tc *Trace) { tc.SetDegraded() })
	for i := 0; i < 500; i++ {
		finishedTrace(tr, fmt.Sprintf("ok-%d", i))
	}

	for _, want := range []*Trace{errTrace, degTrace} {
		got, ok := store.Get(want.ID)
		if !ok || got != want {
			t.Errorf("trace %s (%s) evicted by healthy traffic", want.ID, want.Name)
		}
	}
	if n := store.Len(); n > 16 {
		t.Errorf("store holds %d traces, capacity 16", n)
	}
	// Errors are evicted only by newer errors: fill the error ring past
	// its share and check the oldest goes, the newest stays.
	var newest *Trace
	for i := 0; i < 20; i++ {
		newest = finishedTrace(tr, fmt.Sprintf("err-%d", i), func(tc *Trace) { tc.SetError() })
	}
	if _, ok := store.Get(errTrace.ID); ok {
		t.Error("oldest error trace must eventually yield to newer errors")
	}
	if _, ok := store.Get(newest.ID); !ok {
		t.Error("newest error trace missing")
	}
}

// TestTailRetentionKeepsSlowTail: slow healthy traces displace fast
// ones in the tail even when sampling would have dropped them.
func TestTailRetentionKeepsSlowTail(t *testing.T) {
	store := NewTraceStore(16, 1000000) // sampling keeps ~nothing
	tr := NewTracer(store)

	slow := tr.Start("slow", "r", "")
	time.Sleep(20 * time.Millisecond)
	tr.Finish(slow)
	for i := 0; i < 100; i++ {
		finishedTrace(tr, fmt.Sprintf("fast-%d", i))
	}
	if _, ok := store.Get(slow.ID); !ok {
		t.Error("slow trace not retained in the tail")
	}
	var entry *TraceIndexEntry
	for _, e := range store.List() {
		if e.ID == slow.ID.String() {
			e := e
			entry = &e
		}
	}
	if entry == nil || entry.Retention != RetentionSlow {
		t.Errorf("slow trace index entry = %+v, want retention %q", entry, RetentionSlow)
	}
}

func TestSampledRetention(t *testing.T) {
	store := NewTraceStore(40, 10)
	tr := NewTracer(store)
	kept, dropped := 0, 0
	for i := 0; i < 100; i++ {
		tc := tr.Start("ok", "r", "")
		switch tr.Finish(tc) {
		case RetentionSampled:
			kept++
		case RetentionDropped:
			dropped++
		}
	}
	// The slow tail absorbs the first few; the rest sample at 1-in-10.
	if kept == 0 || kept > 30 || dropped == 0 {
		t.Errorf("sampled %d and dropped %d of 100 healthy traces, want roughly 10 sampled", kept, dropped)
	}
}

// TestTraceStoreConcurrent hammers the store from many writers and
// readers at once; run under -race (make test-race) this is the
// ring-buffer eviction race check.
func TestTraceStoreConcurrent(t *testing.T) {
	store := NewTraceStore(32, 4)
	tr := NewTracer(store)
	stages := NewRegistry().HistogramVec("stages", "h", nil, "stage")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tc := tr.Start(fmt.Sprintf("g%d-%d", g, i), RequestID(), "")
				st := stages.StartStage(tc, nil, "work")
				st.Span().SetAttr("i", fmt.Sprint(i))
				switch i % 3 {
				case 0:
					st.End(errors.New("fail"))
				default:
					st.End(nil)
				}
				if i%7 == 0 {
					tc.SetDegraded()
				}
				tr.Finish(tc)
			}
		}(g)
	}
	// Concurrent readers exercise Get/List/View against the writers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for _, e := range store.List() {
					var tid TraceID
					b, _ := hexDecodeString(e.ID)
					copy(tid[:], b)
					if tc, ok := store.Get(tid); ok {
						_ = tc.View()
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := store.Len(); n > 32 {
		t.Errorf("store over capacity: %d > 32", n)
	}
}

func hexDecodeString(s string) ([]byte, bool) { return hexDecode(s) }

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer(NewTraceStore(16, 1))
	tc := tr.Start("POST /v1/compile", "req-9", "")
	parse := tc.StartSpan(nil, "parse")
	parse.End()
	compile := tc.StartSpan(nil, "compile")
	// Two deliberately overlapping "block" spans — parallel compilation —
	// plus an event.
	now := time.Now()
	b0 := tc.SpanAt(compile, "schedule", now, 10*time.Millisecond)
	b0.SetAttr("block", "b0")
	b1 := tc.SpanAt(compile, "schedule", now.Add(2*time.Millisecond), 10*time.Millisecond)
	b1.SetAttr("block", "b1")
	compile.Event("cache-miss")
	compile.End()
	tr.Finish(tc)

	var buf strings.Builder
	if err := WriteChromeTrace(&buf, tc.View()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TsUS  float64        `json:"ts"`
			DurUS float64        `json:"dur"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	type lane struct{ start, end float64 }
	var complete, instants, meta int
	lanesOf := map[string][]int{}
	byLane := map[int][]lane{}
	for _, e := range out.TraceEvents {
		switch e.Phase {
		case "X":
			complete++
			lanesOf[e.Name] = append(lanesOf[e.Name], e.TID)
			byLane[e.TID] = append(byLane[e.TID], lane{e.TsUS, e.TsUS + e.DurUS})
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if complete != 5 { // root, parse, compile, 2× schedule
		t.Errorf("%d complete events, want 5", complete)
	}
	if instants != 1 {
		t.Errorf("%d instant events, want 1 (cache-miss)", instants)
	}
	if meta == 0 {
		t.Error("no metadata (process/thread name) events")
	}
	// The overlapping schedule spans must not share a lane.
	if ls := lanesOf["schedule"]; len(ls) != 2 || ls[0] == ls[1] {
		t.Errorf("overlapping spans share a lane: %v", ls)
	}
	// Within every lane, spans must strictly nest or be disjoint.
	for tid, ls := range byLane {
		for i := range ls {
			for j := range ls {
				if i == j {
					continue
				}
				a, b := ls[i], ls[j]
				if a.start < b.start && a.end > b.start && a.end < b.end {
					t.Errorf("lane %d: partial overlap [%g,%g) vs [%g,%g)", tid, a.start, a.end, b.start, b.end)
				}
			}
		}
	}
}

func TestInfoGaugeAndExemplarRendering(t *testing.T) {
	reg := NewRegistry()
	reg.Info("test_build_info", "Build information.",
		[]string{"go_version", "version"}, []string{"go1.x", "v1.2.3"})
	h := reg.Histogram("test_latency_seconds", "Latency.", nil)
	h.ObserveExemplar(0.25, "4bf92f3577b34da6a3ce929d0e0e4736")

	var buf strings.Builder
	reg.WriteText(&buf)
	text := buf.String()
	if !strings.Contains(text, `test_build_info{go_version="go1.x",version="v1.2.3"} 1`) {
		t.Errorf("info gauge not rendered:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE test_build_info gauge") {
		t.Errorf("info gauge missing TYPE:\n%s", text)
	}
	want := `# EXEMPLAR test_latency_seconds trace_id="4bf92f3577b34da6a3ce929d0e0e4736" 0.25`
	if !strings.Contains(text, want) {
		t.Errorf("exemplar comment missing (want %q):\n%s", want, text)
	}
}
