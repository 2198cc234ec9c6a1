package obs

import (
	"errors"
	"testing"
	"time"
)

// TestStageOneClock: a stage's histogram sample and its span carry the
// one duration End returns; the span opens at the stage's start under
// the given parent and takes the stage's name; an error marks the span
// and its trace failed. StageAt records the same pair from a start and
// duration measured elsewhere, and an untraced stage still samples.
func TestStageOneClock(t *testing.T) {
	stages := NewRegistry().HistogramVec("stages", "h", nil, "stage")
	tc := NewTracer(NewTraceStore(16, 1)).Start("req", "id", "")

	st := stages.StartStage(tc, nil, "compile")
	time.Sleep(time.Millisecond)
	d := st.End(errors.New("boom"))
	sp := st.Span()
	h := stages.With("compile")
	if d <= 0 || h.Count() != 1 || h.Sum() != d.Seconds() {
		t.Errorf("compile: End %v, sample count %d sum %g", d, h.Count(), h.Sum())
	}
	if sp.Name != "compile" || sp.Duration != d || sp.Parent != tc.Root().ID || sp.Err != "boom" {
		t.Errorf("compile span %+v, want name compile, duration %v, parent root, err boom", sp, d)
	}

	start := time.Now()
	child := stages.StageAt(tc, sp, "weights", start, 3*time.Millisecond)
	if w := stages.With("weights"); w.Count() != 1 || w.Sum() != 0.003 {
		t.Errorf("weights: sample count %d sum %g", w.Count(), w.Sum())
	}
	if child.Parent != sp.ID || !child.Start.Equal(start) || child.Duration != 3*time.Millisecond {
		t.Errorf("weights span %+v", child)
	}
	if tc.View().Status != "error" {
		t.Error("a stage ended with an error must mark its trace erroring")
	}

	untraced := stages.StartStage(nil, nil, "parse")
	if untraced.Span() != nil {
		t.Error("untraced stage has a span")
	}
	if untraced.End(nil); stages.With("parse").Count() != 1 {
		t.Error("untraced stage recorded no sample")
	}
	if stages.StageAt(nil, nil, "parse", start, time.Millisecond) != nil || stages.With("parse").Count() != 2 {
		t.Error("untraced StageAt: want a sample and no span")
	}
	var zero Stage
	if zero.End(errors.New("x")) != 0 || zero.Span() != nil {
		t.Error("the zero Stage must be inert")
	}
}
