package profiler

import (
	"os"
	"strings"
	"testing"
	"time"

	"bsched/internal/obs"
)

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition not met within %v", d)
}

// newCaptures is a capture counter family on a throwaway registry.
func newCaptures() (*obs.Registry, *obs.CounterVec) {
	reg := obs.NewRegistry()
	return reg, reg.CounterVec("captures", "Profiles captured.", "kind", "reason")
}

// counted sums the capture counter's cpu and heap series under reason.
func counted(v *obs.CounterVec, reason string) int64 {
	return v.With("cpu", reason).Value() + v.With("heap", reason).Value()
}

// TestTriggerCapturesCPUAndHeap: a trigger captures one CPU and one heap
// profile, and its reason has one spelling, "breaker_open" for
// "breaker-open", in the counter, in the index and in the index a
// reopened ring reads back from the file names.
func TestTriggerCapturesCPUAndHeap(t *testing.T) {
	dir := t.TempDir()
	reg, captures := newCaptures()
	p, err := New(Config{
		Dir: dir, Interval: -1, CPUDuration: 20 * time.Millisecond,
		Cooldown: time.Millisecond, Captures: captures,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Trigger("breaker-open")
	waitFor(t, 5*time.Second, func() bool { return p.Len() >= 2 })
	checkIndex := func(what string, p *Profiler) {
		t.Helper()
		kinds := map[string]bool{}
		for _, e := range p.Index() {
			kinds[e.Kind] = true
			if e.Reason != "breaker_open" {
				t.Errorf("%s: %s has reason %q, want breaker_open", what, e.Name, e.Reason)
			}
			if e.SizeBytes <= 0 {
				t.Errorf("%s: profile %s has size %d", what, e.Name, e.SizeBytes)
			}
		}
		if !kinds["cpu"] || !kinds["heap"] {
			t.Errorf("%s: missing kinds: %v", what, kinds)
		}
	}
	checkIndex("index", p)
	p.Close() // waits for the capture, so both counts have landed
	fams := reg.Snapshot()
	for _, s := range fams[0].Series {
		if s.LabelValues[1] != "breaker_open" || s.Value != 1 {
			t.Errorf("capture series %v = %g, want one each of cpu and heap under breaker_open", s.LabelValues, s.Value)
		}
	}
	if len(fams[0].Series) != 2 {
		t.Errorf("capture series %+v, want cpu and heap", fams[0].Series)
	}
	reopened, err := New(Config{Dir: dir, Interval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	checkIndex("reopened index", reopened)
}

// TestPeriodicCapture: with a positive Interval, Start's loop lands
// captures on its own and counts each under reason "periodic".
func TestPeriodicCapture(t *testing.T) {
	_, captures := newCaptures()
	p, err := New(Config{
		Dir: t.TempDir(), Interval: 20 * time.Millisecond, CPUDuration: 10 * time.Millisecond,
		Captures: captures,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Start()
	waitFor(t, 5*time.Second, func() bool { return counted(captures, "periodic") >= 2 })
	for _, e := range p.Index() {
		if e.Reason != "periodic" {
			t.Fatalf("periodic loop captured %s with reason %q", e.Name, e.Reason)
		}
	}
}

func TestTriggerCooldown(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{Dir: dir, Interval: -1, CPUDuration: 10 * time.Millisecond,
		Cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Trigger("a")
	waitFor(t, 5*time.Second, func() bool { return p.Len() >= 2 })
	p.Trigger("b") // inside cooldown: dropped
	time.Sleep(100 * time.Millisecond)
	for _, e := range p.Index() {
		if e.Reason == "b" {
			t.Fatal("trigger inside cooldown captured a profile")
		}
	}
}

func TestEventBurstEscalates(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{Dir: dir, Interval: -1, CPUDuration: 10 * time.Millisecond,
		Cooldown: time.Millisecond, BurstThreshold: 3, BurstWindow: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Event("shed-burst")
	p.Event("shed-burst")
	time.Sleep(50 * time.Millisecond)
	if p.Len() != 0 {
		t.Fatal("sub-threshold events captured a profile")
	}
	p.Event("shed-burst")
	waitFor(t, 5*time.Second, func() bool { return p.Len() >= 1 })
}

func TestRingBoundAndAdoption(t *testing.T) {
	dir := t.TempDir()
	_, captures := newCaptures()
	p, err := New(Config{Dir: dir, Interval: -1, CPUDuration: 5 * time.Millisecond,
		MaxFiles: 3, Cooldown: time.Millisecond, Captures: captures})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p.Trigger("fill")
		want := int64(2 * (i + 1))
		waitFor(t, 5*time.Second, func() bool { return counted(captures, "fill") >= want })
		time.Sleep(5 * time.Millisecond) // clear cooldown
	}
	if p.Len() > 3 {
		t.Fatalf("ring holds %d entries, bound is 3", p.Len())
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".pprof") {
			n++
		}
	}
	if n > 3 {
		t.Fatalf("%d profile files on disk, bound is 3", n)
	}
	p.Close()

	// A new profiler over the same dir adopts the ring.
	p2, err := New(Config{Dir: dir, Interval: -1, MaxFiles: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.Len() != n {
		t.Fatalf("adopted %d entries, want %d", p2.Len(), n)
	}
}

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.Start()
	p.Trigger("x")
	p.Event("y")
	if p.Len() != 0 || p.Index() != nil {
		t.Fatal("nil profiler returned data")
	}
	if _, err := p.Open("z"); err == nil {
		t.Fatal("nil profiler opened a file")
	}
	p.Close()
}

func TestOpenRejectsTraversal(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{Dir: dir, Interval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Open("../profiler.go"); err == nil {
		t.Fatal("Open accepted a traversal path")
	}
}
