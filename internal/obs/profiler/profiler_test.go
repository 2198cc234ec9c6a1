package profiler

import (
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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

func TestTriggerCapturesCPUAndHeap(t *testing.T) {
	dir := t.TempDir()
	var captured []string
	p, err := New(Config{
		Dir: dir, Interval: -1, CPUDuration: 20 * time.Millisecond,
		Cooldown: time.Millisecond,
		OnCapture: func(kind, reason string) {
			captured = append(captured, kind+":"+reason)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Trigger("breaker-open")
	waitFor(t, 5*time.Second, func() bool { return p.Len() >= 2 })
	kinds := map[string]bool{}
	for _, e := range p.Index() {
		kinds[e.Kind] = true
		if e.Reason != "breaker_open" && e.Reason != "breaker-open" {
			t.Fatalf("unexpected reason %q", e.Reason)
		}
		if e.SizeBytes <= 0 {
			t.Fatalf("profile %s has size %d", e.Name, e.SizeBytes)
		}
	}
	if !kinds["cpu"] || !kinds["heap"] {
		t.Fatalf("missing kinds: %v", kinds)
	}
}

// TestPeriodicCapture: with a positive Interval, Start's loop lands
// captures on its own and reports each through OnCapture with reason
// "periodic".
func TestPeriodicCapture(t *testing.T) {
	var periodic atomic.Int64
	p, err := New(Config{
		Dir: t.TempDir(), Interval: 20 * time.Millisecond, CPUDuration: 10 * time.Millisecond,
		OnCapture: func(kind, reason string) {
			if reason == "periodic" {
				periodic.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Start()
	waitFor(t, 5*time.Second, func() bool { return periodic.Load() >= 2 })
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
	var captures atomic.Int64
	p, err := New(Config{Dir: dir, Interval: -1, CPUDuration: 5 * time.Millisecond,
		MaxFiles: 3, Cooldown: time.Millisecond,
		OnCapture: func(kind, reason string) { captures.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p.Trigger("fill")
		want := int64(2 * (i + 1))
		waitFor(t, 5*time.Second, func() bool { return captures.Load() >= want })
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
