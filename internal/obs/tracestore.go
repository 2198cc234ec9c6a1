package obs

import (
	"container/heap"
	"sort"
	"sync"
	"time"
)

// Retention classes a TraceStore assigns on Add.
const (
	// RetentionError marks traces that erred or carried a degraded
	// compilation — always kept, evicted only by newer error traces.
	RetentionError = "error"
	// RetentionSlow marks traces kept because they sit in the slowest
	// tail of recent healthy traffic.
	RetentionSlow = "slow"
	// RetentionSampled marks healthy fast traces kept by 1-in-K
	// sampling.
	RetentionSampled = "sampled"
	// RetentionRemote marks trace fragments recorded on behalf of a
	// remote caller (peer-protocol requests carrying a traceparent) —
	// always admitted, into their own ring, so the remote half of a
	// cross-node trace survives long enough to be stitched.
	RetentionRemote = "remote"
	// RetentionDropped marks traces the sampler let go.
	RetentionDropped = "dropped"
)

// Defaults for NewTraceStore's zero arguments.
const (
	// DefaultTraceCapacity is the total trace bound when capacity is 0.
	DefaultTraceCapacity = 256
	// DefaultTraceSampleEvery keeps 1 in K healthy fast traces when
	// sampleEvery is 0.
	DefaultTraceSampleEvery = 16
)

// TraceStore is a bounded in-memory buffer of completed traces with
// tail-based retention: the interesting traces survive, the boring ones
// are sampled. Three classes share the capacity —
//
//   - error/degraded traces: always admitted, into a ring evicted only
//     by newer error traces (half the capacity);
//   - the slowest tail of healthy traces: a min-heap on duration, so a
//     new trace slower than the current tail minimum displaces it (a
//     quarter of the capacity);
//   - remote fragments (traces started from a peer's traceparent):
//     always admitted into their own ring (an eighth of the capacity),
//     so cross-node stitching can find the far half of a trace;
//   - everything else: 1-in-K sampled into a plain ring (the rest).
//
// The split means a flood of fast healthy traffic can never evict the
// one erroring request you need for the incident dig, and "why was this
// request slow" is answerable from the slow tail without tracing every
// request. Safe for concurrent use.
type TraceStore struct {
	mu sync.Mutex

	errors  traceRing
	slow    slowTail
	remote  traceRing
	sampled traceRing

	sampleEvery int
	sampleSeq   uint64

	byID map[TraceID]*Trace
}

// NewTraceStore builds a store bounded to capacity traces in total,
// sampling 1 in sampleEvery healthy fast traces. Zero values take the
// defaults; capacity is clamped to at least 8 so every class keeps at
// least one slot.
func NewTraceStore(capacity, sampleEvery int) *TraceStore {
	if capacity == 0 {
		capacity = DefaultTraceCapacity
	}
	if capacity < 8 {
		capacity = 8
	}
	if sampleEvery <= 0 {
		sampleEvery = DefaultTraceSampleEvery
	}
	errCap := capacity / 2
	slowCap := capacity / 4
	remoteCap := capacity / 8
	sampCap := capacity - errCap - slowCap - remoteCap
	return &TraceStore{
		errors:      traceRing{cap: errCap},
		slow:        slowTail{cap: slowCap},
		remote:      traceRing{cap: remoteCap},
		sampled:     traceRing{cap: sampCap},
		sampleEvery: sampleEvery,
		byID:        make(map[TraceID]*Trace),
	}
}

// Add runs one finished trace through tail-based retention and returns
// the class it landed in.
func (s *TraceStore) Add(t *Trace) string {
	if s == nil || t == nil {
		return RetentionDropped
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case t.errorOrDegraded():
		if old := s.errors.push(t); old != nil {
			delete(s.byID, old.ID)
		}
		s.byID[t.ID] = t
		return RetentionError
	case t.Remote:
		if old := s.remote.push(t); old != nil {
			delete(s.byID, old.ID)
		}
		s.byID[t.ID] = t
		return RetentionRemote
	case s.slow.admit(t):
		if old := s.slow.push(t); old != nil {
			delete(s.byID, old.ID)
		}
		s.byID[t.ID] = t
		return RetentionSlow
	default:
		s.sampleSeq++
		if s.sampleSeq%uint64(s.sampleEvery) != 1 && s.sampleEvery > 1 {
			return RetentionDropped
		}
		if old := s.sampled.push(t); old != nil {
			delete(s.byID, old.ID)
		}
		s.byID[t.ID] = t
		return RetentionSampled
	}
}

// Get returns the retained trace with the given id.
func (s *TraceStore) Get(id TraceID) (*Trace, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[id]
	return t, ok
}

// Len reports how many traces are currently retained.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// TraceIndexEntry is one row of the trace index (GET /v1/traces).
type TraceIndexEntry struct {
	ID        string    `json:"id"`
	RequestID string    `json:"request_id"`
	Name      string    `json:"name"`
	Start     time.Time `json:"start"`
	// DurationMillis is the root span's wall time.
	DurationMillis float64 `json:"duration_ms"`
	Status         string  `json:"status"`
	Degraded       bool    `json:"degraded,omitempty"`
	Retention      string  `json:"retention"`
	Spans          int     `json:"spans"`
}

// List returns index entries for every retained trace, newest first.
func (s *TraceStore) List() []TraceIndexEntry {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	type tagged struct {
		t         *Trace
		retention string
	}
	all := make([]tagged, 0, len(s.byID))
	for _, t := range s.errors.items {
		all = append(all, tagged{t, RetentionError})
	}
	for _, t := range s.slow.items {
		all = append(all, tagged{t, RetentionSlow})
	}
	for _, t := range s.remote.items {
		all = append(all, tagged{t, RetentionRemote})
	}
	for _, t := range s.sampled.items {
		all = append(all, tagged{t, RetentionSampled})
	}
	s.mu.Unlock()

	out := make([]TraceIndexEntry, 0, len(all))
	for _, tt := range all {
		v := tt.t.View()
		out = append(out, TraceIndexEntry{
			ID:             v.ID,
			RequestID:      v.RequestID,
			Name:           v.Name,
			Start:          v.Start,
			DurationMillis: v.DurationMillis,
			Status:         v.Status,
			Degraded:       v.Degraded,
			Retention:      tt.retention,
			Spans:          len(v.Spans),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// traceRing is a fixed-capacity FIFO: push returns the evicted trace
// once full.
type traceRing struct {
	cap   int
	items []*Trace
}

func (r *traceRing) push(t *Trace) (evicted *Trace) {
	if r.cap <= 0 {
		return t // zero-capacity ring retains nothing
	}
	if len(r.items) < r.cap {
		r.items = append(r.items, t)
		return nil
	}
	evicted = r.items[0]
	copy(r.items, r.items[1:])
	r.items[len(r.items)-1] = t
	return evicted
}

// slowTail keeps the slowest cap healthy traces: a min-heap on duration
// so the fastest of the kept tail is displaced first.
type slowTail struct {
	cap   int
	items []*Trace // heap-ordered, items[0] fastest
}

// admit reports whether t belongs in the tail: there is room, or t is
// slower than the current minimum.
func (h *slowTail) admit(t *Trace) bool {
	if h.cap <= 0 {
		return false
	}
	if len(h.items) < h.cap {
		return true
	}
	return t.durationValue() > h.items[0].durationValue()
}

// push inserts t, returning the displaced minimum when full. Callers
// check admit first.
func (h *slowTail) push(t *Trace) (evicted *Trace) {
	if len(h.items) >= h.cap {
		evicted = h.items[0]
		h.items[0] = t
		heap.Fix(h, 0)
		return evicted
	}
	heap.Push(h, t)
	return nil
}

// heap.Interface over trace durations.
func (h *slowTail) Len() int { return len(h.items) }
func (h *slowTail) Less(i, j int) bool {
	return h.items[i].durationValue() < h.items[j].durationValue()
}
func (h *slowTail) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *slowTail) Push(x any)    { h.items = append(h.items, x.(*Trace)) }
func (h *slowTail) Pop() any {
	n := len(h.items)
	t := h.items[n-1]
	h.items = h.items[:n-1]
	return t
}
