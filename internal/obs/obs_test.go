package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a test counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	var b strings.Builder
	r.WriteText(&b)
	want := "# HELP test_total a test counter\n# TYPE test_total counter\ntest_total 42\n"
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	(&Counter{}).Add(-1)
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("responses_total", "responses by outcome", "outcome")
	v.With("ok").Add(3)
	v.With("rejected").Inc()
	v.With("ok").Inc() // same child
	if got := v.With("ok").Value(); got != 4 {
		t.Errorf("ok = %d, want 4", got)
	}
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	// Series render in sorted label order regardless of creation order.
	iOK := strings.Index(out, `responses_total{outcome="ok"} 4`)
	iRej := strings.Index(out, `responses_total{outcome="rejected"} 1`)
	if iOK < 0 || iRej < 0 || iOK > iRej {
		t.Errorf("vec series wrong or unsorted:\n%s", out)
	}
}

func TestGaugeSampledAtScrape(t *testing.T) {
	r := NewRegistry()
	val := 1.5
	r.Gauge("depth", "current depth", func() float64 { return val })
	var b strings.Builder
	r.WriteText(&b)
	if !strings.Contains(b.String(), "depth 1.5\n") {
		t.Errorf("gauge missing:\n%s", b.String())
	}
	val = 7
	b.Reset()
	r.WriteText(&b)
	if !strings.Contains(b.String(), "depth 7\n") {
		t.Errorf("gauge not re-sampled:\n%s", b.String())
	}
}

// TestHistogramQuantiles ports the former server-internal histogram
// test: 90 fast requests at ~0.8ms, 10 slow at ~150ms.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram(nil)
	if q := quantile(h, 0.5); q != 0 {
		t.Errorf("empty histogram p50 = %g, want 0", q)
	}
	for i := 0; i < 90; i++ {
		h.ObserveDuration(800 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.ObserveDuration(150 * time.Millisecond)
	}
	if p50 := quantile(h, 0.50); p50 < 500e-6 || p50 > 1e-3 {
		t.Errorf("p50 = %gs, want within (0.0005, 0.001]", p50)
	}
	if p99 := quantile(h, 0.99); p99 < 0.1 || p99 > 0.2 {
		t.Errorf("p99 = %gs, want within (0.1, 0.2]", p99)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d, want 100", h.Count())
	}
	wantSum := 90*800e-6 + 10*150e-3
	if s := h.Sum(); math.Abs(s-wantSum) > 1e-9 {
		t.Errorf("sum = %g, want %g", s, wantSum)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram(nil)
	for i := 0; i < 4; i++ {
		h.ObserveDuration(time.Hour)
	}
	// The +Inf bucket reports the largest finite bound rather than
	// inventing an upper one.
	if q := quantile(h, 0.5); q != 10 {
		t.Errorf("overflow p50 = %gs, want 10 (largest finite bound)", q)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 1` + "\n",
		`lat_seconds_bucket{le="1"} 2` + "\n",
		`lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"lat_seconds_count 3\n",
		"lat_seconds_sum 5.55\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramVecSeparatesLabels(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("stage_seconds", "per-stage", []float64{1}, "stage", "tier")
	v.With("parse", "small").Observe(0.5)
	v.With("parse", "default").Observe(2)
	var got []string
	for _, s := range v.snapshot().Series {
		got = append(got, strings.Join(s.LabelValues, "/"))
		if s.Count != 1 {
			t.Errorf("%v count = %d, want 1", s.LabelValues, s.Count)
		}
	}
	if len(got) != 2 || got[0] != "parse/default" || got[1] != "parse/small" {
		t.Errorf("children %v, want [parse/default parse/small]", got)
	}
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	if !strings.Contains(out, `stage_seconds_bucket{stage="parse",tier="small",le="1"} 1`) {
		t.Errorf("labeled bucket series missing:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("errs_total", "errors", "msg")
	v.With("a \"quoted\"\nback\\slash").Inc()
	var b strings.Builder
	r.WriteText(&b)
	if !strings.Contains(b.String(), `errs_total{msg="a \"quoted\"\nback\\slash"} 1`) {
		t.Errorf("escaping wrong:\n%s", b.String())
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "second")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1leading", "has-dash", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "bad")
		}()
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1\n") {
		t.Errorf("body:\n%s", rec.Body.String())
	}
}

// TestConcurrentObserve hammers a histogram and a counter vec from many
// goroutines; under `make test-race` this is the package's race proof.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "c", nil)
	v := r.CounterVec("c_total", "c", "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i) * 1e-5)
				v.With([]string{"a", "b"}[g%2]).Inc()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { // scrape concurrently with writes
		for {
			select {
			case <-done:
				return
			default:
				var b strings.Builder
				r.WriteText(&b)
			}
		}
	}()
	wg.Wait()
	close(done)
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
	if n := v.With("a").Value() + v.With("b").Value(); n != 8000 {
		t.Errorf("counter total = %d, want 8000", n)
	}
}
