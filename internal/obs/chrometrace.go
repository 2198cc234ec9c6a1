package obs

import (
	"encoding/json"
	"errors"
	"io"
	"sort"
	"time"
)

// ErrNoFragments is returned by WriteChromeTraceFleet with an empty
// fragment list.
var ErrNoFragments = errors.New("obs: no trace fragments")

// Chrome trace-event export: renders a TraceView as the JSON object
// format understood by Perfetto (ui.perfetto.dev) and chrome://tracing.
// Spans become complete ("X") events; span events become instant ("i")
// markers; thread-name metadata labels the lanes.
//
// The viewers nest "X" events on one thread row by time containment, so
// spans that genuinely overlap — parallel block compilations inside one
// request — must not share a row. assignLanes places each span on the
// first lane where it is either properly nested inside the still-open
// span or starts after everything there ended, which renders the
// request's span tree correctly however many blocks compiled at once.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TsUS  float64        `json:"ts"`            // microseconds from trace start
	DurUS float64        `json:"dur,omitempty"` // microseconds, "X" events only
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace renders v as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, v TraceView) error {
	events := appendFragment(nil, v, 1, "bschedd "+v.Name, v.Start, nil)
	return encodeChromeTrace(w, events, chromeMeta(v))
}

// NodeTrace is one node's fragment of a cross-node trace: the node's
// identity plus the span tree its local store retained for the trace
// ID.
type NodeTrace struct {
	Node string    `json:"node"`
	View TraceView `json:"view"`
}

// WriteChromeTraceFleet renders the fragments of one distributed trace
// as a single Chrome trace-event JSON document. Each node becomes its
// own process (pid) with a process_name metadata row naming the node,
// and each fragment's spans get per-node lanes via assignLanes, so
// Perfetto draws one lane group per node. All timestamps are relative
// to the earliest fragment start, which keeps the caller's probe span
// and the remote fragment it spawned on one shared time axis (clock
// skew between nodes shows up as offset, not breakage). Span parent
// edges cross fragments naturally: a remote fragment's root span
// carries the caller's probe span ID as its parent.
func WriteChromeTraceFleet(w io.Writer, frags []NodeTrace) error {
	if len(frags) == 0 {
		return ErrNoFragments
	}
	t0 := frags[0].View.Start
	for _, f := range frags[1:] {
		if f.View.Start.Before(t0) {
			t0 = f.View.Start
		}
	}

	var events []chromeEvent
	nodes := make([]string, 0, len(frags))
	for fi, f := range frags {
		nodes = append(nodes, f.Node)
		events = appendFragment(events, f.View, fi+1, f.Node+" "+f.View.Name, t0,
			map[string]any{"node": f.Node})
	}
	meta := chromeMeta(frags[0].View)
	meta["nodes"] = nodes
	return encodeChromeTrace(w, events, meta)
}

// appendFragment appends one trace fragment's events as process pid:
// the process_name row (named process), one thread_name row per lane,
// then each span as an "X" event followed by its instant events, with
// times in microseconds from t0. Every span's args start from a copy of
// base, then carry its ID, parent, attributes and error.
func appendFragment(events []chromeEvent, v TraceView, pid int, process string, t0 time.Time, base map[string]any) []chromeEvent {
	lanes := assignLanes(v.Spans)
	nLanes := 0
	for _, l := range lanes {
		if l+1 > nLanes {
			nLanes = l + 1
		}
	}
	events = append(events, chromeEvent{
		Name: "process_name", Phase: "M", PID: pid, TID: 0,
		Args: map[string]any{"name": process},
	})
	for lane := 0; lane < nLanes; lane++ {
		name := "request"
		if lane > 0 {
			name = "workers"
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Phase: "M", PID: pid, TID: lane,
			Args: map[string]any{"name": name},
		})
	}
	for i, s := range v.Spans {
		ts := float64(s.Start.Sub(t0).Nanoseconds()) / 1e3
		dur := float64(s.Duration.Nanoseconds()) / 1e3
		if dur <= 0 {
			dur = 0.001 // zero-width spans are invisible in the viewers
		}
		args := make(map[string]any, len(base)+len(s.Attrs)+3)
		for k, a := range base {
			args[k] = a
		}
		args["span_id"] = s.ID
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		if s.Err != "" {
			args["error"] = s.Err
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "span", Phase: "X",
			TsUS: ts, DurUS: dur, PID: pid, TID: lanes[i], Args: args,
		})
		for _, ev := range s.Events {
			events = append(events, chromeEvent{
				Name: ev.Name, Cat: "event", Phase: "i", Scope: "t",
				TsUS: float64(ev.Time.Sub(t0).Nanoseconds()) / 1e3,
				PID:  pid, TID: lanes[i],
			})
		}
	}
	return events
}

// chromeMeta is the document metadata both exports carry, taken from
// the (root) fragment's trace.
func chromeMeta(v TraceView) map[string]any {
	return map[string]any{
		"trace_id":   v.ID,
		"request_id": v.RequestID,
		"status":     v.Status,
		"degraded":   v.Degraded,
	}
}

// encodeChromeTrace writes the top-level trace-event JSON object.
func encodeChromeTrace(w io.Writer, events []chromeEvent, meta map[string]any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms", OtherData: meta})
}

// assignLanes maps each span (by index into spans) to a lane (tid) such
// that within a lane, spans only nest — never partially overlap — so
// the trace viewers draw the tree correctly.
func assignLanes(spans []SpanView) []int {
	type bounds struct {
		start, end int64 // nanoseconds
		idx        int
	}
	bs := make([]bounds, len(spans))
	for i, s := range spans {
		start := s.Start.UnixNano()
		bs[i] = bounds{start: start, end: start + s.Duration.Nanoseconds(), idx: i}
	}
	// Sort by start time, longer spans first on ties so a parent with the
	// same start as its child is placed before it.
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].start != bs[j].start {
			return bs[i].start < bs[j].start
		}
		return bs[i].end > bs[j].end
	})

	lanes := make([]int, len(spans))
	var open [][]bounds // per lane: stack of still-open spans
	for _, b := range bs {
		placed := false
		for lane := 0; lane < len(open) && !placed; lane++ {
			stack := open[lane]
			for len(stack) > 0 && stack[len(stack)-1].end <= b.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) == 0 || b.end <= stack[len(stack)-1].end {
				open[lane] = append(stack, b)
				lanes[b.idx] = lane
				placed = true
			} else {
				open[lane] = stack
			}
		}
		if !placed {
			open = append(open, []bounds{b})
			lanes[b.idx] = len(open) - 1
		}
	}
	return lanes
}
