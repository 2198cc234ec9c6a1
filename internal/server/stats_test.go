package server

import (
	"strings"
	"testing"
	"time"

	"bsched/internal/compile"
)

func TestSnapshotCounters(t *testing.T) {
	s := newStats()
	s.requests.Add(3)
	s.ok.Add(2)
	s.cacheHits.Add(1)
	s.hist.ObserveDuration(2 * time.Millisecond)
	snap := s.snapshot()
	if snap.Requests != 3 || snap.OK != 2 || snap.CacheHits != 1 {
		t.Errorf("snapshot %+v", snap)
	}
	if snap.P50Millis <= 0 {
		t.Errorf("p50 %g after one observation", snap.P50Millis)
	}
}

// TestSnapshotStageBreakdown: per-stage samples recorded through the
// engine's ObserveStage seam surface in the Snapshot's Stages map.
func TestSnapshotStageBreakdown(t *testing.T) {
	s := newStats()
	if got := s.snapshot().Stages; got != nil {
		t.Errorf("empty stats carry a stage breakdown: %v", got)
	}
	s.observeStage(compile.StageWeights, 3*time.Millisecond)
	s.observeStage(compile.StageWeights, 3*time.Millisecond)
	s.stages.With(stageQueue).ObserveDuration(100 * time.Microsecond)
	snap := s.snapshot()
	w, ok := snap.Stages[compile.StageWeights]
	if !ok || w.Count != 2 {
		t.Fatalf("weights breakdown %+v (stages %v)", w, snap.Stages)
	}
	if w.P50Millis < 2 || w.P50Millis > 5 {
		t.Errorf("weights p50 = %gms, want within (2, 5]", w.P50Millis)
	}
	if q, ok := snap.Stages[stageQueue]; !ok || q.Count != 1 {
		t.Errorf("queue breakdown %+v", snap.Stages)
	}
}

// TestSnapshotTierBreakdown: per-tier compile durations land in
// separate Tiers entries.
func TestSnapshotTierBreakdown(t *testing.T) {
	s := newStats()
	s.tiers.With(TierSmall).ObserveDuration(1 * time.Millisecond)
	s.tiers.With(TierDefault).ObserveDuration(40 * time.Millisecond)
	snap := s.snapshot()
	small, dflt := snap.Tiers[TierSmall], snap.Tiers[TierDefault]
	if small.Count != 1 || dflt.Count != 1 {
		t.Fatalf("tiers %+v", snap.Tiers)
	}
	if small.P50Millis >= dflt.P50Millis {
		t.Errorf("small p50 %gms not below default p50 %gms", small.P50Millis, dflt.P50Millis)
	}
}

// TestStatsExposition: the registry renders every counter family the
// JSON snapshot reports, under the documented metric names.
func TestStatsExposition(t *testing.T) {
	s := newStats()
	s.requests.Inc()
	s.rejected.Inc()
	s.degradations.Add(2)
	var b strings.Builder
	s.reg.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"bschedd_requests_total 1",
		`bschedd_responses_total{outcome="rejected"} 1`,
		"bschedd_degradations_total 2",
		"# TYPE bschedd_request_duration_seconds histogram",
		"# TYPE bschedd_stage_duration_seconds histogram",
		"# TYPE bschedd_compile_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
