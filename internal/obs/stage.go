package obs

import "time"

// Stage is one timed stage of a request. StartStage and End each read
// the clock once, and that start and duration become both a sample of
// the stage histogram and, on a traced request, the stage's span, so
// /metrics and a trace cannot disagree about a stage. The zero Stage
// is inert.
type Stage struct {
	h     *Histogram
	span  *Span
	start time.Time
}

// StartStage opens stage name on v's series for name and, when t is
// non-nil, its span of the same name under parent (nil: the root span).
func (v *HistogramVec) StartStage(t *Trace, parent *Span, name string) Stage {
	start := time.Now()
	return Stage{h: v.With(name), span: t.SpanAt(parent, name, start, 0), start: start}
}

// End closes the stage and returns its duration. A non-nil err marks
// the span, and with it the trace, failed.
func (s Stage) End(err error) time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.ObserveDuration(d)
	s.span.end(d, err)
	return d
}

// Span returns the stage's span, nil on an untraced request.
func (s Stage) Span() *Span { return s.span }

// StageAt records a stage timed elsewhere, as the compiler times its
// own: a sample of v's series for name and, when t is non-nil, a
// completed span under parent. It returns the span.
func (v *HistogramVec) StageAt(t *Trace, parent *Span, name string, start time.Time, d time.Duration) *Span {
	v.With(name).ObserveDuration(d)
	return t.SpanAt(parent, name, start, d)
}
