package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The export writers' bytes are pinned by golden files under testdata:
// /metrics scrapers and trace viewers parse these formats, so any byte
// that moves is a visible change, not a refactor.

// checkGolden compares got with testdata/name line by line.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}

// goldenRegistry holds one family of every kind the registry renders,
// with values chosen to hit the formatting edges: a counter above 1e6,
// label values that need escaping, a sub-1e-4 gauge, an info family, a
// histogram with an exemplar and a labeled histogram.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("golden_events_total", "Events seen.").Add(1234567)
	cv := r.CounterVec("golden_errors_total", "Errors by message, with a \\ and a\nnewline in the help.", "msg", "code")
	cv.With(`quote " inside`, "400").Add(3)
	cv.With("back\\slash\nnewline", "500").Inc()
	cv.With("plain", "422").Add(1000000)
	r.Gauge("golden_ratio", "A fractional gauge.", func() float64 { return 0.25 })
	r.Gauge("golden_tiny", "A gauge below 1e-4.", func() float64 { return 1e-7 })
	r.Info("golden_build_info", "Build information.",
		[]string{"go_version", "version"}, []string{"go1.x", "v1.2.3"})
	h := r.Histogram("golden_latency_seconds", "Request latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.004)
	h.Observe(0.25)
	h.ObserveExemplar(0.05, "4bf92f3577b34da6a3ce929d0e0e4736")
	hv := r.HistogramVec("golden_stage_seconds", "Per-stage latency.", []float64{0.5, 2}, "stage", "tier")
	hv.With("parse", "small").Observe(0.25)
	hv.With("compile", "default").Observe(1)
	hv.With("compile", "default").Observe(3)
	return r
}

func TestWriteTextGolden(t *testing.T) {
	var b bytes.Buffer
	goldenRegistry().WriteText(&b)
	checkGolden(t, "metrics.golden", b.Bytes())
}

// goldenT0 anchors every golden trace's times.
var goldenT0 = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

func ms(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }

// goldenView is a finished /v1/compile trace: a root with an event, a
// parse span, two overlapping compile spans (the second needs its own
// lane), and a zero-width error span.
func goldenView() TraceView {
	return TraceView{
		ID: "4bf92f3577b34da6a3ce929d0e0e4736", RequestID: "req-7", Name: "POST /v1/compile",
		Start: goldenT0, Duration: ms(10), Status: "error", Degraded: true,
		Spans: []SpanView{
			{ID: "00f067aa0ba902b7", Name: "POST /v1/compile", Start: goldenT0, Duration: ms(10),
				Attrs:  []Attr{{Key: "fingerprint", Value: "00000000deadbeef"}, {Key: "status", Value: "503"}},
				Events: []SpanEvent{{Name: "cache-miss", Time: goldenT0.Add(ms(1))}}},
			{ID: "00f067aa0ba902b8", Parent: "00f067aa0ba902b7", Name: "parse",
				Start: goldenT0.Add(ms(0.1)), Duration: ms(0.5)},
			{ID: "00f067aa0ba902b9", Parent: "00f067aa0ba902b7", Name: "compile",
				Start: goldenT0.Add(ms(2)), Duration: ms(5),
				Attrs:  []Attr{{Key: "policy", Value: "balanced"}},
				Events: []SpanEvent{{Name: "degraded", Time: goldenT0.Add(ms(6.5))}}},
			{ID: "00f067aa0ba902ba", Parent: "00f067aa0ba902b7", Name: "compile",
				Start: goldenT0.Add(ms(3)), Duration: ms(6.25),
				Attrs: []Attr{{Key: "block", Value: "b1"}}},
			{ID: "00f067aa0ba902bb", Parent: "00f067aa0ba902b7", Name: "peer-probe",
				Start: goldenT0.Add(ms(9.5)), Err: "context deadline exceeded"},
		},
	}
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, goldenView()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrometrace.golden", b.Bytes())
}

func TestWriteChromeTraceFleetGolden(t *testing.T) {
	// The remote fragment starts before the caller's (clock skew), so it
	// sets the shared time origin.
	remoteStart := goldenT0.Add(-ms(0.75))
	remote := TraceView{
		ID: "4bf92f3577b34da6a3ce929d0e0e4736", RequestID: "req-31", Name: "GET /v1/peer/lookup",
		Start: remoteStart, Duration: ms(2), Status: "ok", Remote: true,
		Spans: []SpanView{
			{ID: "a1b2c3d4e5f60718", Parent: "00f067aa0ba902bb", Name: "GET /v1/peer/lookup",
				Start: remoteStart, Duration: ms(2),
				Attrs:  []Attr{{Key: "node", Value: "attr wins over base"}},
				Events: []SpanEvent{{Name: "peer-hit", Time: remoteStart.Add(ms(1.5))}}},
			{ID: "a1b2c3d4e5f60719", Parent: "a1b2c3d4e5f60718", Name: "cache-lookup",
				Start: remoteStart.Add(ms(0.25)), Duration: ms(1)},
		},
	}
	frags := []NodeTrace{
		{Node: "http://10.0.0.1:7070", View: goldenView()},
		{Node: "http://10.0.0.2:7070", View: remote},
	}
	var b bytes.Buffer
	if err := WriteChromeTraceFleet(&b, frags); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrometrace_fleet.golden", b.Bytes())
}
