// Package obs is the observability toolkit behind the bschedd daemon:
// a dependency-free metrics registry rendered in the Prometheus text
// exposition format (version 0.0.4), and a structured logger (logfmt
// key=value or JSON lines) with process-unique request IDs.
//
// The registry holds three metric kinds, mirroring the Prometheus data
// model without importing it:
//
//   - Counter: a monotonically increasing int64, one atomic add per
//     event. Counters come plain (Registry.Counter) or labeled
//     (Registry.CounterVec).
//   - Gauge: a function-backed instantaneous value, sampled at scrape
//     time — queue depth, cache residency, uptime. Gauges never store
//     state of their own, so they can never drift from the truth.
//   - Histogram: a fixed-bucket latency distribution. Fixed bounds keep
//     Observe to two atomic operations and make quantile estimation
//     allocation-free; rendering emits the cumulative `_bucket` series,
//     `_sum` and `_count` exactly as Prometheus expects. Histograms
//     also come labeled (Registry.HistogramVec) for per-stage and
//     per-tier breakdowns.
//
// Render everything with Registry.WriteText, or serve it directly with
// Registry.Handler (the `GET /metrics` endpoint). WriteText renders the
// registry's snapshot through WriteSnapshotText, the one text writer,
// which also renders the fleet-merged view (`GET /v1/fleet/metrics`).
// Metric families render in registration order; series within a
// labeled family render in sorted label order, so the output is
// deterministic — tests can parse it line by line.
// docs/OBSERVABILITY.md catalogs every metric the daemon registers.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A metric family exports a point-in-time snapshot, which both the
// exposition writer and the fleet merge consume.
type family interface {
	snapshot() FamilySnapshot
}

// Registry is an ordered collection of metric families. All
// registration methods panic on a duplicate or invalid name —
// registration happens once at startup, so a bad name is a programmer
// error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families []family
	names    map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register claims a family name, panicking on duplicates or names that
// are not valid Prometheus identifiers.
func (r *Registry) register(name string, f family) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	r.names[name] = true
	r.families = append(r.families, f)
}

// validName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabel reports whether s matches [a-zA-Z_][a-zA-Z0-9_]* (labels,
// unlike metric names, may not contain colons).
func validLabel(s string) bool {
	return validName(s) && !strings.Contains(s, ":")
}

// WriteText renders every registered family in Prometheus text
// exposition format: `# HELP` and `# TYPE` comments followed by one
// line per series. Families appear in registration order, series
// within a labeled family in sorted label order.
func (r *Registry) WriteText(w io.Writer) { WriteSnapshotText(w, r.Snapshot()) }

// Handler serves WriteText with the exposition-format content type —
// mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// writeHeader emits the # HELP / # TYPE preamble of one family.
func writeHeader(w io.Writer, name, help, typ string) {
	esc := strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(help)
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, esc, name, typ)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	return strings.NewReplacer("\\", `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
}

// formatLabels renders {k1="v1",k2="v2"}, or "" with no labels.
func formatLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value the way Prometheus clients do.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing event count, safe for
// concurrent use. Create with Registry.Counter or CounterVec.With.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n panics (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// counterFamily is one unlabeled counter.
type counterFamily struct {
	name, help string
	c          *Counter
}

func (f *counterFamily) snapshot() FamilySnapshot {
	return FamilySnapshot{Name: f.name, Help: f.help, Kind: KindCounter,
		Series: []SeriesSnapshot{{Value: float64(f.c.Value())}}}
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, &counterFamily{name: name, help: help, c: c})
	return c
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	name, help string
	labels     []string
	mu         sync.RWMutex
	children   map[string]*Counter
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	v := &CounterVec{name: name, help: help, labels: labels, children: make(map[string]*Counter)}
	r.register(name, v)
	return v
}

// With returns the counter for the given label values (one per label
// name, in declaration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	key := vecKey(v.labels, values)
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[key]; c == nil {
		c = &Counter{}
		v.children[key] = c
	}
	return c
}

func (v *CounterVec) snapshot() FamilySnapshot {
	fs := FamilySnapshot{Name: v.name, Help: v.help, Kind: KindCounter,
		Labels: append([]string(nil), v.labels...)}
	for _, key := range v.sortedKeys() {
		v.mu.RLock()
		c := v.children[key]
		v.mu.RUnlock()
		fs.Series = append(fs.Series, SeriesSnapshot{
			LabelValues: splitKey(key), Value: float64(c.Value())})
	}
	return fs
}

func (v *CounterVec) sortedKeys() []string {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// vecKey joins label values with an unprintable separator; panics when
// the arity is wrong (a programmer error at every call site).
func vecKey(labels, values []string) string {
	if len(values) != len(labels) {
		panic(fmt.Sprintf("obs: %d label values for %d labels", len(values), len(labels)))
	}
	return strings.Join(values, "\x1f")
}

func splitKey(key string) []string { return strings.Split(key, "\x1f") }

// ---------------------------------------------------------------------
// Gauge

// gaugeFamily is one function-backed gauge, sampled at scrape time.
type gaugeFamily struct {
	name, help string
	fn         func() float64
}

func (f *gaugeFamily) snapshot() FamilySnapshot {
	return FamilySnapshot{Name: f.name, Help: f.help, Kind: KindGauge,
		Series: []SeriesSnapshot{{Value: f.fn()}}}
}

// Gauge registers a function-backed gauge: fn is called once per
// scrape (and must therefore be safe for concurrent use and fast).
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.register(name, &gaugeFamily{name: name, help: help, fn: fn})
}

// infoFamily is one info-style gauge: a constant 1 whose labels carry
// the information (the `build_info` idiom).
type infoFamily struct {
	name, help     string
	labels, values []string
}

func (f *infoFamily) snapshot() FamilySnapshot {
	return FamilySnapshot{Name: f.name, Help: f.help, Kind: KindGauge,
		Labels: append([]string(nil), f.labels...),
		Series: []SeriesSnapshot{{LabelValues: append([]string(nil), f.values...), Value: 1}}}
}

// Info registers an info-style gauge — a constant 1 whose label values
// identify the process (`bschedd_build_info{go_version=...} 1`), so
// scrapes can join metrics to a binary version.
func (r *Registry) Info(name, help string, labels, values []string) {
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	if len(labels) != len(values) {
		panic(fmt.Sprintf("obs: %d label values for %d labels", len(values), len(labels)))
	}
	r.register(name, &infoFamily{name: name, help: help,
		labels: append([]string(nil), labels...), values: append([]string(nil), values...)})
}

// ---------------------------------------------------------------------
// Histogram

// DefaultLatencyBuckets are upper bounds in seconds, roughly 1-2-5 per
// decade from 50µs to 10s — wide enough for a cache hit (~tens of µs)
// and a degraded multi-second compile alike. The final +Inf bucket is
// implicit.
var DefaultLatencyBuckets = []float64{
	50e-6, 100e-6, 200e-6, 500e-6,
	1e-3, 2e-3, 5e-3,
	10e-3, 20e-3, 50e-3,
	0.1, 0.2, 0.5,
	1, 2, 5, 10,
}

// Histogram is a fixed-bucket distribution, safe for concurrent use.
// Observe costs two atomic operations; quantile estimation interpolates
// linearly within the containing bucket.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	count   atomic.Int64
	ex      atomic.Pointer[exemplar]
}

// exemplar is the last observation annotated with a trace id — the
// histogram→trace link: a scrape that shows a latency spike also names
// one concrete trace to open.
type exemplar struct {
	value   float64
	traceID string
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not strictly increasing")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample (for latency histograms: seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one sample and remembers it, tagged with a
// trace id, as the histogram's last exemplar. The exemplar renders as a
// `# EXEMPLAR` comment after the family (comments are ignored by strict
// text-format 0.0.4 parsers, so the exposition stays compatible) and is
// also surfaced in the /stats JSON.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	h.ex.Store(&exemplar{value: v, traceID: traceID})
}

// Exemplar returns the last exemplar-tagged observation, if any.
func (h *Histogram) Exemplar() (value float64, traceID string, ok bool) {
	e := h.ex.Load()
	if e == nil {
		return 0, "", false
	}
	return e.value, e.traceID, true
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the containing bucket. It returns 0 with no observations; the
// +Inf bucket reports the largest finite bound rather than inventing an
// upper one.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		frac := 0.0
		if c > 0 {
			frac = (rank - float64(cum)) / float64(c)
		}
		return lo + frac*(hi-lo)
	}
	return h.bounds[len(h.bounds)-1]
}

// histogramFamily is one unlabeled histogram.
type histogramFamily struct {
	name, help string
	h          *Histogram
}

// series returns the histogram's per-bucket counts (non-cumulative,
// len(bounds)+1 with the +Inf bucket last), sum, and count.
func (h *Histogram) series(labelValues []string) SeriesSnapshot {
	s := SeriesSnapshot{
		LabelValues:  labelValues,
		BucketCounts: make([]int64, len(h.counts)),
		Sum:          h.Sum(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.BucketCounts[i] = c
		s.Count += c
	}
	return s
}

func (f *histogramFamily) snapshot() FamilySnapshot {
	return FamilySnapshot{Name: f.name, Help: f.help, Kind: KindHistogram,
		Bounds:   append([]float64(nil), f.h.bounds...),
		Series:   []SeriesSnapshot{f.h.series(nil)},
		exemplar: f.h.ex.Load()}
}

// Histogram registers and returns an unlabeled histogram. Nil or empty
// bounds mean DefaultLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(name, &histogramFamily{name: name, help: help, h: h})
	return h
}

// HistogramVec is a family of histograms keyed by label values — the
// per-stage and per-tier latency breakdowns.
type HistogramVec struct {
	name, help string
	labels     []string
	bounds     []float64
	mu         sync.RWMutex
	children   map[string]*Histogram
}

// HistogramVec registers and returns a labeled histogram family. Nil
// or empty bounds mean DefaultLatencyBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	v := &HistogramVec{name: name, help: help, labels: labels, bounds: bounds,
		children: make(map[string]*Histogram)}
	r.register(name, v)
	return v
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := vecKey(v.labels, values)
	v.mu.RLock()
	h := v.children[key]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.children[key]; h == nil {
		h = newHistogram(v.bounds)
		v.children[key] = h
	}
	return h
}

// Each calls fn for every populated child in sorted label order.
func (v *HistogramVec) Each(fn func(values []string, h *Histogram)) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, key := range keys {
		v.mu.RLock()
		h := v.children[key]
		v.mu.RUnlock()
		fn(splitKey(key), h)
	}
}

func (v *HistogramVec) snapshot() FamilySnapshot {
	fs := FamilySnapshot{Name: v.name, Help: v.help, Kind: KindHistogram,
		Labels: append([]string(nil), v.labels...),
		Bounds: append([]float64(nil), v.bounds...)}
	v.Each(func(values []string, h *Histogram) {
		fs.Series = append(fs.Series, h.series(values))
	})
	return fs
}
