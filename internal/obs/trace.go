package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Per-request tracing. A Trace is the span tree of one request: a root
// span opened by the HTTP middleware plus child spans for every stage
// the request passes through (parse, cache lookup, queue wait, compile,
// and the per-block pipeline stages inside the compiler). Completed
// traces land in a TraceStore with tail-based retention, are listed at
// GET /v1/traces, and render as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing) at GET /v1/traces/{id}.
//
// Trace IDs follow the W3C Trace Context format (128-bit trace ID,
// 64-bit span ID) so an incoming `traceparent` header from an upstream
// service is honored verbatim and the root span parents onto the
// caller's span — the propagation seam future cross-shard fan-out will
// ride.

// TraceID is a 128-bit W3C trace-id.
type TraceID [16]byte

// SpanID is a 64-bit W3C parent-id / span-id.
type SpanID [8]byte

// String renders the id as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the id is the invalid all-zero id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the id as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the id is the invalid all-zero id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// idSeq breaks ties if the random source ever fails: ids degrade to
// time+sequence rather than colliding.
var idSeq atomic.Uint64

func randomBytes(b []byte) {
	if _, err := rand.Read(b); err != nil {
		binary.BigEndian.PutUint64(b, uint64(time.Now().UnixNano())^idSeq.Add(1))
	}
}

// NewTraceID mints a random non-zero trace id.
func NewTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		randomBytes(id[:])
	}
	return id
}

// NewSpanID mints a random non-zero span id.
func NewSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		randomBytes(id[:])
	}
	return id
}

// ParseTraceparent parses a W3C Trace Context `traceparent` header:
//
//	version "-" trace-id "-" parent-id "-" flags
//	"00"    "-" 32 hex   "-" 16 hex    "-" 2 hex
//
// It returns ok=false — callers then mint a fresh trace — for anything
// malformed: wrong length or separators, non-lowercase-hex fields, the
// reserved version "ff", or an all-zero trace-id or parent-id.
func ParseTraceparent(h string) (TraceID, SpanID, bool) {
	var tid TraceID
	var sid SpanID
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, false
	}
	if len(h) > 55 && h[55] != '-' { // future versions may append "-fields"
		return tid, sid, false
	}
	ver, ok := hexDecode(h[:2])
	if !ok || (ver[0] == 0xff) {
		return tid, sid, false
	}
	t, ok := hexDecode(h[3:35])
	if !ok {
		return tid, sid, false
	}
	s, ok := hexDecode(h[36:52])
	if !ok {
		return tid, sid, false
	}
	if _, ok := hexDecode(h[53:55]); !ok {
		return tid, sid, false
	}
	copy(tid[:], t)
	copy(sid[:], s)
	if tid.IsZero() || sid.IsZero() {
		return tid, sid, false
	}
	return tid, sid, true
}

// hexDecode decodes strictly lowercase hex (the only form the W3C spec
// lets a sender emit; uppercase is rejected as malformed).
func hexDecode(s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return nil, false
		}
	}
	b, err := hex.DecodeString(s)
	return b, err == nil
}

// ParseTraceID parses a 32-digit lowercase-hex trace id (the form
// TraceID.String renders and /v1/traces/{id} URLs carry).
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return id, false
	}
	b, ok := hexDecode(s)
	if !ok {
		return id, false
	}
	copy(id[:], b)
	return id, !id.IsZero()
}

// FormatTraceparent renders a version-00 traceparent header with the
// sampled flag set, for propagating this trace to a downstream service.
func FormatTraceparent(tid TraceID, sid SpanID) string {
	return fmt.Sprintf("00-%s-%s-01", tid, sid)
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanEvent is one point-in-time marker inside a span (cache hit/miss,
// coalesced wait, 503, ...).
type SpanEvent struct {
	Name string    `json:"name"`
	Time time.Time `json:"time"`
}

// Span is one timed operation inside a trace. Spans are created by
// Trace.StartSpan (live, ended by End), by Trace.SpanAt (retroactive,
// already complete) or by a request stage (HistogramVec.StartStage,
// ended by Stage.End). All mutation goes through methods, which
// serialize on the owning trace's lock; a nil *Span is valid and inert,
// so call sites never need to guard for disabled tracing.
type Span struct {
	ID       SpanID
	Parent   SpanID // zero for the root span
	Name     string
	Start    time.Time
	Duration time.Duration // zero until ended
	Attrs    []Attr
	Events   []SpanEvent
	Err      string // non-empty marks the span (and its trace) failed

	t *Trace
}

// End closes the span, recording its duration.
func (s *Span) End() {
	if s != nil {
		s.end(time.Since(s.Start), nil)
	}
}

// end closes the span with duration d. A non-nil err marks the span
// failed and the trace erroring, which tail-based retention keeps.
func (s *Span) end(d time.Duration, err error) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.Duration = d
	if err != nil {
		s.Err = err.Error()
		s.t.errored = true
	}
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// Event records a point-in-time marker inside the span.
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.Events = append(s.Events, SpanEvent{Name: name, Time: time.Now()})
}

// Trace is the span tree of one request. Field access outside this
// package goes through View (a deep copy under the trace lock), so
// concurrent span writers — parallel block compilations end spans from
// worker goroutines — never race a reader rendering the trace.
type Trace struct {
	ID        TraceID
	RequestID string
	Name      string
	Start     time.Time
	// Remote is true when the trace id arrived in a traceparent header;
	// RemoteParent is then the caller's span id, which the root span
	// parents onto.
	Remote       bool
	RemoteParent SpanID

	mu       sync.Mutex
	root     *Span
	spans    []*Span
	duration time.Duration
	errored  bool
	degraded bool
	finished bool
}

// Root returns the trace's root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// StartSpan opens a live child span under parent (nil parent means the
// root span). End it with End.
func (t *Trace) StartSpan(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(parent, name, time.Now(), 0)
}

// SpanAt records an already-completed span, where start and duration
// are known only after the fact.
func (t *Trace) SpanAt(parent *Span, name string, start time.Time, d time.Duration) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(parent, name, start, d)
}

func (t *Trace) addLocked(parent *Span, name string, start time.Time, d time.Duration) *Span {
	s := &Span{ID: NewSpanID(), Name: name, Start: start, Duration: d, t: t}
	if parent != nil {
		s.Parent = parent.ID
	} else if t.root != nil {
		s.Parent = t.root.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// SetError marks the trace as erroring regardless of span state (the
// middleware calls it for any response status >= 400), guaranteeing
// tail-based retention.
func (t *Trace) SetError() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.errored = true
}

// SetDegraded marks the trace as carrying a degraded compilation, which
// the tail-based sampler always retains.
func (t *Trace) SetDegraded() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.degraded = true
}

// finish closes the root span and freezes the trace's duration; called
// exactly once by Tracer.Finish. Spans still in flight (a worker
// compiling for a client that hung up) may end after finish — their
// writes stay safe under the trace lock, and renders pick up whatever
// has completed by then.
func (t *Trace) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return
	}
	t.finished = true
	t.root.Duration = time.Since(t.root.Start)
	t.duration = t.root.Duration
}

// TraceView is an immutable deep copy of a trace, safe to render or
// serialize without holding any lock.
type TraceView struct {
	ID        string        `json:"id"`
	RequestID string        `json:"request_id"`
	Name      string        `json:"name"`
	Start     time.Time     `json:"start"`
	Duration  time.Duration `json:"-"`
	// DurationMillis is the JSON rendering of Duration.
	DurationMillis float64    `json:"duration_ms"`
	Status         string     `json:"status"` // "ok" or "error"
	Degraded       bool       `json:"degraded,omitempty"`
	Remote         bool       `json:"remote,omitempty"`
	Spans          []SpanView `json:"spans"`
}

// SpanView is the immutable copy of one span inside a TraceView.
type SpanView struct {
	ID       string        `json:"id"`
	Parent   string        `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"-"`
	// DurationMillis is the JSON rendering of Duration.
	DurationMillis float64     `json:"duration_ms"`
	Attrs          []Attr      `json:"attrs,omitempty"`
	Events         []SpanEvent `json:"events,omitempty"`
	Err            string      `json:"err,omitempty"`
}

// View deep-copies the trace under its lock.
func (t *Trace) View() TraceView {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := TraceView{
		ID:             t.ID.String(),
		RequestID:      t.RequestID,
		Name:           t.Name,
		Start:          t.Start,
		Duration:       t.duration,
		DurationMillis: float64(t.duration.Microseconds()) / 1000,
		Status:         "ok",
		Degraded:       t.degraded,
		Remote:         t.Remote,
	}
	if t.errored {
		v.Status = "error"
	}
	for _, s := range t.spans {
		sv := SpanView{
			ID:             s.ID.String(),
			Name:           s.Name,
			Start:          s.Start,
			Duration:       s.Duration,
			DurationMillis: float64(s.Duration.Microseconds()) / 1000,
			Attrs:          append([]Attr(nil), s.Attrs...),
			Events:         append([]SpanEvent(nil), s.Events...),
			Err:            s.Err,
		}
		if !s.Parent.IsZero() {
			sv.Parent = s.Parent.String()
		}
		v.Spans = append(v.Spans, sv)
	}
	return v
}

// errorOrDegraded reports whether the sampler must retain the trace.
func (t *Trace) errorOrDegraded() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.errored || t.degraded
}

// durationLocked returns the frozen duration.
func (t *Trace) durationValue() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.duration
}

// Tracer mints request traces and hands completed ones to a TraceStore.
// A nil *Tracer is valid and produces nil traces, so the server's hot
// path needs no tracing-enabled branches.
type Tracer struct {
	store *TraceStore
}

// NewTracer builds a tracer retaining completed traces in store.
func NewTracer(store *TraceStore) *Tracer {
	return &Tracer{store: store}
}

// Store returns the tracer's trace store.
func (tr *Tracer) Store() *TraceStore {
	if tr == nil {
		return nil
	}
	return tr.store
}

// Start opens a new trace with its root span. traceparent, when a valid
// W3C header, supplies the trace id and the remote parent span id; a
// missing or malformed header mints a fresh trace id instead.
func (tr *Tracer) Start(name, requestID, traceparent string) *Trace {
	if tr == nil {
		return nil
	}
	t := &Trace{RequestID: requestID, Name: name, Start: time.Now()}
	if tid, sid, ok := ParseTraceparent(traceparent); ok {
		t.ID, t.Remote, t.RemoteParent = tid, true, sid
	} else {
		t.ID = NewTraceID()
	}
	t.root = &Span{ID: NewSpanID(), Parent: t.RemoteParent, Name: name, Start: t.Start, t: t}
	t.spans = []*Span{t.root}
	return t
}

// Finish closes the trace and runs it through the store's tail-based
// retention, returning the retention class ("error", "slow", "sampled"
// or "dropped").
func (tr *Tracer) Finish(t *Trace) string {
	if tr == nil || t == nil {
		return RetentionDropped
	}
	t.finish()
	return tr.store.Add(t)
}

// traceCtxKey carries the active trace in a context.
type traceCtxKey struct{}

// ContextWithTrace returns ctx carrying t.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}
