package admission

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock shared by the deterministic
// controller tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func mustPush(t *testing.T, q *Queue[int], p Priority, v int) {
	t.Helper()
	if err := q.Push(p, v); err != nil {
		t.Fatalf("Push(%v, %d): %v", p, v, err)
	}
}

func mustPop(t *testing.T, q *Queue[int]) (int, Priority) {
	t.Helper()
	v, p, ok := q.TryPop()
	if !ok {
		t.Fatal("TryPop: empty queue")
	}
	return v, p
}

// TestQueueWeightedService: with both classes backlogged, interactive
// is served InteractiveWeight times per batch service — batch drains at
// a guaranteed 1/(w+1) share, and neither class starves.
func TestQueueWeightedService(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue[int](Config{Depth: 16, InteractiveWeight: 2, Now: clk.now})
	for i := 0; i < 6; i++ {
		mustPush(t, q, Interactive, 100+i)
	}
	for i := 0; i < 3; i++ {
		mustPush(t, q, Batch, 200+i)
	}
	var order []Priority
	for q.Len() > 0 {
		_, p := mustPop(t, q)
		order = append(order, p)
	}
	want := []Priority{Interactive, Interactive, Batch, Interactive, Interactive, Batch, Interactive, Interactive, Batch}
	if len(order) != len(want) {
		t.Fatalf("served %d items, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

// TestQueueFIFOWithinClass: items of one class come out in arrival
// order.
func TestQueueFIFOWithinClass(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue[int](Config{Depth: 8, Now: clk.now})
	for i := 0; i < 5; i++ {
		mustPush(t, q, Batch, i)
	}
	for i := 0; i < 5; i++ {
		v, p := mustPop(t, q)
		if v != i || p != Batch {
			t.Fatalf("pop %d: got (%d, %v)", i, v, p)
		}
	}
}

// TestQueueFull: each class's bound is independent, and overflow is
// ErrFull (the backstop, distinct from CoDel's ErrShed).
func TestQueueFull(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue[int](Config{Depth: 2, Now: clk.now})
	mustPush(t, q, Interactive, 1)
	mustPush(t, q, Interactive, 2)
	if err := q.Push(Interactive, 3); err != ErrFull {
		t.Fatalf("overflow push: %v, want ErrFull", err)
	}
	// Batch still has room: the bounds are per class.
	mustPush(t, q, Batch, 4)
}

// TestQueueCoDelShedBeforeFull: when dequeued items have waited past
// the sojourn target for longer than the interval, new arrivals are
// shed even though the queue has plenty of room — the CoDel contract.
func TestQueueCoDelShedBeforeFull(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue[int](Config{
		Depth: 64, CoDelTarget: 10 * time.Millisecond, CoDelInterval: 100 * time.Millisecond,
		Now: clk.now,
	})
	// Feed a standing queue: every dequeue observes an over-target
	// sojourn, across more than one interval.
	mustPush(t, q, Interactive, 0) // t=0
	mustPush(t, q, Interactive, 1) // t=0
	clk.advance(50 * time.Millisecond)
	mustPop(t, q)                  // sojourn 50ms ≥ target → firstAbove = t50
	mustPush(t, q, Interactive, 2) // t=50
	clk.advance(50 * time.Millisecond)
	mustPop(t, q)                  // sojourn 100ms; above for 50ms < interval
	mustPush(t, q, Interactive, 3) // t=100
	clk.advance(60 * time.Millisecond)
	mustPop(t, q) // sojourn 110ms; above for 110ms ≥ interval → shedding

	if q.Len() >= q.Capacity()/2 {
		t.Fatalf("queue length %d of %d — shedding should begin while the queue is far from full", q.Len(), q.Capacity())
	}
	if err := q.Push(Interactive, 99); err != ErrShed {
		t.Fatalf("push while shedding: %v, want ErrShed", err)
	}
	// Batch's controller is independent: it has seen no bad sojourns.
	mustPush(t, q, Batch, 1)

	// The class draining empty ends the episode: weighted service takes
	// the one standing interactive item (3), then the batch item, and
	// the next interactive arrival is admitted again.
	mustPop(t, q)
	mustPop(t, q)
	if len(q.classes[Interactive]) != 0 {
		t.Fatal("interactive class should be empty")
	}
	if err := q.Push(Interactive, 100); err != nil {
		t.Fatalf("push into a drained class: %v", err)
	}
	// An under-target sojourn resets the controller outright.
	clk.advance(time.Millisecond)
	mustPop(t, q)
	if err := q.Push(Interactive, 101); err != nil {
		t.Fatalf("push after recovery: %v", err)
	}
}

// TestQueueStalledDrainSheds: when nothing is being dequeued at all
// (a wedged pool produces no sojourn observations), the head item's
// age stands in and new arrivals are still shed.
func TestQueueStalledDrainSheds(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue[int](Config{
		Depth: 64, CoDelTarget: 10 * time.Millisecond, CoDelInterval: 100 * time.Millisecond,
		Now: clk.now,
	})
	mustPush(t, q, Interactive, 1)
	clk.advance(200 * time.Millisecond) // head is now older than target+interval
	if err := q.Push(Interactive, 2); err != ErrShed {
		t.Fatalf("push with a stalled drain: %v, want ErrShed", err)
	}
}

// TestQueueCoDelDisabled: a negative target turns sojourn shedding off;
// only ErrFull remains.
func TestQueueCoDelDisabled(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue[int](Config{Depth: 4, CoDelTarget: -1, Now: clk.now})
	mustPush(t, q, Interactive, 1)
	clk.advance(time.Hour)
	if err := q.Push(Interactive, 2); err != nil {
		t.Fatalf("push with shedding disabled: %v", err)
	}
}

// TestQueueRetryAfter: the estimate is backlog × drain interval,
// floored at 1 and clamped at MaxRetryAfterSeconds; a stalled drain
// reports the clamp.
func TestQueueRetryAfter(t *testing.T) {
	clk := newFakeClock()
	q := NewQueue[int](Config{Depth: 64, CoDelTarget: -1, Now: clk.now})
	if got := q.RetryAfterSeconds(); got != 1 {
		t.Errorf("empty queue retry %d, want 1", got)
	}
	// Establish a 500ms-per-item drain rate.
	for i := 0; i < 10; i++ {
		mustPush(t, q, Interactive, i)
		clk.advance(500 * time.Millisecond)
		mustPop(t, q)
	}
	for i := 0; i < 6; i++ {
		mustPush(t, q, Interactive, i)
	}
	got := q.RetryAfterSeconds()
	if got < 2 || got > 6 {
		t.Errorf("retry estimate %ds for 6 items at ~0.5s/item, want roughly 3", got)
	}
	// Stall: nothing dequeued for a minute → clamp.
	clk.advance(time.Minute)
	if got := q.RetryAfterSeconds(); got != MaxRetryAfterSeconds {
		t.Errorf("stalled retry %d, want clamp %d", got, MaxRetryAfterSeconds)
	}
}

// TestQueuePopBlocks: Pop waits for work and honors cancellation and
// Close.
func TestQueuePopBlocks(t *testing.T) {
	q := NewQueue[int](Config{Depth: 4})
	got := make(chan int, 1)
	go func() {
		v, _, ok := q.Pop(context.Background())
		if ok {
			got <- v
		}
	}()
	time.Sleep(10 * time.Millisecond)
	mustPush(t, q, Batch, 42)
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("popped %d, want 42", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop never woke for a pushed item")
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, _, ok := q.Pop(ctx)
		done <- ok
	}()
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("cancelled Pop reported ok")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop ignored context cancellation")
	}

	q.Close()
	if _, _, ok := q.Pop(context.Background()); ok {
		t.Fatal("Pop on a closed queue reported ok")
	}
}

// TestQuotaExhaustAndRefill: a tenant burns its burst, is denied with a
// positive wait, and is re-admitted after tokens refill.
func TestQuotaExhaustAndRefill(t *testing.T) {
	clk := newFakeClock()
	q := NewQuota(QuotaConfig{Rate: 2, Burst: 3, Now: clk.now})
	for i := 0; i < 3; i++ {
		d := q.Allow("acme")
		if !d.OK {
			t.Fatalf("request %d within burst denied", i)
		}
		if d.Remaining != 2-i {
			t.Errorf("request %d remaining %d, want %d", i, d.Remaining, 2-i)
		}
	}
	d := q.Allow("acme")
	if d.OK {
		t.Fatal("request past burst admitted")
	}
	if d.RetryAfter <= 0 || d.RetryAfter > time.Second {
		t.Errorf("denial RetryAfter %v, want (0, 1s] at 2 tokens/s", d.RetryAfter)
	}
	if d.RetryAfterSeconds() < 1 {
		t.Errorf("header seconds %d, want >= 1", d.RetryAfterSeconds())
	}
	// Refill: 1s at 2/s restores 2 tokens.
	clk.advance(time.Second)
	if d := q.Allow("acme"); !d.OK || d.Remaining != 1 {
		t.Fatalf("after refill: %+v, want OK with 1 remaining", d)
	}
}

// TestQuotaTenantIsolation: one tenant exhausting its bucket leaves
// another tenant's untouched.
func TestQuotaTenantIsolation(t *testing.T) {
	clk := newFakeClock()
	q := NewQuota(QuotaConfig{Rate: 1, Burst: 2, Now: clk.now})
	q.Allow("hot")
	q.Allow("hot")
	if d := q.Allow("hot"); d.OK {
		t.Fatal("hot tenant not limited")
	}
	if d := q.Allow("cold"); !d.OK {
		t.Fatal("cold tenant starved by the hot one")
	}
}

// TestQuotaLRUBound: the tracked-tenant table is bounded.
func TestQuotaLRUBound(t *testing.T) {
	clk := newFakeClock()
	q := NewQuota(QuotaConfig{Rate: 1, Burst: 1, MaxTenants: 4, Now: clk.now})
	for _, tenant := range []string{"a", "b", "c", "d", "e", "f"} {
		q.Allow(tenant)
	}
	if got := q.Tenants(); got != 4 {
		t.Errorf("tracked tenants %d, want 4", got)
	}
	// "a" was evicted; it returns with a fresh (full) bucket.
	if d := q.Allow("a"); !d.OK {
		t.Error("evicted tenant denied on return")
	}
}

// TestQuotaDisabled: a nil Quota (Rate <= 0) admits everything.
func TestQuotaDisabled(t *testing.T) {
	q := NewQuota(QuotaConfig{Rate: 0})
	if q != nil {
		t.Fatal("zero rate should build a nil (disabled) quota")
	}
	if d := q.Allow("anyone"); !d.OK {
		t.Fatal("nil quota denied a request")
	}
}

// TestBreakerLifecycle walks the full state machine: consecutive
// failures trip it, the cooldown gates a single probe, and the probe's
// outcome closes or re-opens. Trips are counted through OnTransition,
// as the engine counts them.
func TestBreakerLifecycle(t *testing.T) {
	clk := newFakeClock()
	var transitions []string
	trips := 0
	b := NewBreaker(BreakerConfig{
		Threshold: 3, Cooldown: time.Second, Now: clk.now,
		OnTransition: func(from, to BreakerState) {
			transitions = append(transitions, from.String()+"->"+to.String())
			if to == BreakerOpen {
				trips++
			}
		},
	})
	// Non-consecutive failures never trip.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("tripped without threshold consecutive failures")
	}
	b.Failure()
	if b.State() != BreakerOpen || trips != 1 {
		t.Fatalf("state %v trips %d after 3 consecutive failures, want open/1", b.State(), trips)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed before cooldown")
	}
	// Cooldown elapses: exactly one probe gets through.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second caller admitted while probe outstanding")
	}
	// Probe fails → re-open, cooldown restarts.
	b.Failure()
	if b.State() != BreakerOpen || trips != 2 {
		t.Fatalf("state %v trips %d after failed probe, want open/2", b.State(), trips)
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("no second probe after re-cooldown")
	}
	// Probe succeeds → closed, counters reset.
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused traffic")
	}
	// Two failures after recovery: below threshold, still closed.
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("failure count not reset by recovery")
	}
	want := []string{"closed->open", "open->half-open", "half-open->open", "open->half-open", "half-open->closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
}

// TestBreakerNil: the nil breaker is the "no breaker" object.
func TestBreakerNil(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker refused")
	}
	b.Success()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("nil breaker has state")
	}
}

// TestBreakerConcurrent shakes the breaker under the race detector.
func TestBreakerConcurrent(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 5, Cooldown: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if b.Allow() {
					if (g+i)%3 == 0 {
						b.Failure()
					} else {
						b.Success()
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
