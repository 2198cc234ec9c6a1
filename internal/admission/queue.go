// Package admission is the bschedd daemon's overload-resilience
// substrate: the pieces that decide, before any compilation work is
// spent, whether a request should be served now, served later, or
// refused honestly.
//
// It provides three independent mechanisms, composed by
// bsched/internal/server:
//
//   - Queue: a two-priority (interactive/batch) weighted queue whose
//     depth is governed by a CoDel-style sojourn controller. Interactive
//     work is served preferentially at a configurable weight, batch work
//     is guaranteed a service share so it never starves, and when queue
//     sojourn time persistently exceeds a target the queue sheds newest
//     arrivals *before* it fills — so rejections happen while the
//     backlog is still short enough that the accepted work meets its
//     deadlines. The queue also estimates its drain rate, which turns
//     the constant "Retry-After: 1" of a naive limiter into an honest,
//     adaptive figure.
//
//   - Quota: per-tenant token buckets. Each tenant refills at a fixed
//     rate up to a burst; a hot tenant exhausts its own bucket and gets
//     429s while everyone else's traffic is untouched.
//
//   - Breaker: a consecutive-failure circuit breaker (closed → open →
//     half-open probe → closed) used around the persistent disk cache,
//     so a sick disk degrades the daemon to memory-only serving instead
//     of stalling compile leaders on every I/O.
//
// Everything takes an injectable clock so tests are deterministic.
package admission

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Priority classifies a request for queueing. The zero value is
// Interactive, so untagged traffic gets the low-latency class.
type Priority int

const (
	// Interactive is latency-sensitive traffic: served preferentially.
	Interactive Priority = iota
	// Batch is throughput traffic: guaranteed a service share, but it
	// yields to interactive work when both are waiting.
	Batch

	numPriorities = 2
)

// String names the priority ("interactive", "batch").
func (p Priority) String() string {
	if p == Batch {
		return "batch"
	}
	return "interactive"
}

// ParsePriority maps a request's priority tag onto a Priority. The
// empty string is Interactive (untagged traffic should get the
// low-latency class, not a surprise demotion).
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	}
	return Interactive, fmt.Errorf("unknown priority %q (want interactive|batch)", s)
}

// Queue rejection sentinels. ErrFull is the hard backstop (the bounded
// buffer is at capacity); ErrShed is the CoDel controller acting first
// (sojourn over target — the queue is refusing new work while it still
// has room, because accepted work is already waiting too long).
var (
	ErrFull = errors.New("admission: queue full")
	ErrShed = errors.New("admission: queue shedding, sojourn over target")
)

// Queue configuration defaults.
const (
	// DefaultDepth is the per-priority queue depth when Config.Depth is
	// zero.
	DefaultDepth = 64
	// DefaultInteractiveWeight is how many interactive items are served
	// per batch item when both classes are waiting. Batch is guaranteed
	// 1/(weight+1) of the service rate when backlogged.
	DefaultInteractiveWeight = 4
	// DefaultCoDelTarget is the queue-sojourn target: sojourns
	// persistently above it (for DefaultCoDelInterval) flip the class
	// into shedding.
	DefaultCoDelTarget = 100 * time.Millisecond
	// DefaultCoDelInterval is how long sojourn must stay above target
	// before shedding starts.
	DefaultCoDelInterval = time.Second
	// MaxRetryAfterSeconds clamps the adaptive Retry-After estimate; a
	// stalled queue reports this rather than an unbounded figure.
	MaxRetryAfterSeconds = 30
)

// Config sizes a Queue. The zero value is usable.
type Config struct {
	// Depth bounds each priority class's backlog. Zero means
	// DefaultDepth.
	Depth int
	// InteractiveWeight is the interactive:batch service ratio when both
	// classes are waiting. Zero means DefaultInteractiveWeight.
	InteractiveWeight int
	// CoDelTarget is the sojourn target; negative disables sojourn
	// shedding entirely (ErrFull remains). Zero means DefaultCoDelTarget.
	CoDelTarget time.Duration
	// CoDelInterval is how long sojourn must exceed the target before
	// shedding begins. Zero means DefaultCoDelInterval.
	CoDelInterval time.Duration
	// Now is the clock; nil means time.Now. Tests inject a fake.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Depth <= 0 {
		c.Depth = DefaultDepth
	}
	if c.InteractiveWeight <= 0 {
		c.InteractiveWeight = DefaultInteractiveWeight
	}
	if c.CoDelTarget == 0 {
		c.CoDelTarget = DefaultCoDelTarget
	}
	if c.CoDelInterval <= 0 {
		c.CoDelInterval = DefaultCoDelInterval
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// queued is one waiting item with its arrival time (the sojourn clock).
type queued[T any] struct {
	v  T
	at time.Time
}

// codel is the per-class sojourn controller: the CoDel idea (detect a
// *standing* queue by watching how long dequeued items waited, not how
// many are waiting) applied at admission. While shedding, new arrivals
// are rejected; the first dequeue whose sojourn is back under target
// ends the episode.
type codel struct {
	target, interval time.Duration
	firstAbove       time.Time // zero when sojourn is under target
	shedding         bool
}

// observe feeds one dequeue's sojourn into the controller.
func (c *codel) observe(now time.Time, sojourn time.Duration) {
	if c.target < 0 {
		return
	}
	if sojourn < c.target {
		c.firstAbove = time.Time{}
		c.shedding = false
		return
	}
	if c.firstAbove.IsZero() {
		c.firstAbove = now
		return
	}
	if now.Sub(c.firstAbove) >= c.interval {
		c.shedding = true
	}
}

// shouldShed reports whether a new arrival should be refused: either
// the controller is in a shedding episode, or the head of the queue has
// been waiting so long (drain stalled — no dequeues to observe) that
// admitting more work is dishonest. An empty class ends any shedding
// episode: with nothing standing, a new arrival's sojourn restarts from
// zero, so refusing it would be pure hysteresis.
func (c *codel) shouldShed(now, head time.Time) bool {
	if c.target < 0 {
		return false
	}
	if head.IsZero() {
		c.shedding = false
		c.firstAbove = time.Time{}
		return false
	}
	if c.shedding {
		return true
	}
	return now.Sub(head) > c.target+c.interval
}

// Queue is the two-priority weighted admission queue. Push never
// blocks; Pop blocks until an item, context cancellation, or Close.
// Safe for concurrent use.
type Queue[T any] struct {
	cfg Config

	mu      sync.Mutex
	classes [numPriorities][]queued[T] // FIFO per class
	ctl     [numPriorities]codel
	served  int // consecutive interactive services while batch waited

	// drain-rate estimate: EWMA of the interval between dequeues.
	lastPop      time.Time
	ewmaInterval float64 // seconds; 0 until two pops happened

	ready  chan struct{} // one token per queued item
	closed chan struct{}
	once   sync.Once
}

// NewQueue builds an empty queue.
func NewQueue[T any](cfg Config) *Queue[T] {
	cfg = cfg.withDefaults()
	q := &Queue[T]{
		cfg:    cfg,
		ready:  make(chan struct{}, numPriorities*cfg.Depth),
		closed: make(chan struct{}),
	}
	for i := range q.ctl {
		q.ctl[i] = codel{target: cfg.CoDelTarget, interval: cfg.CoDelInterval}
	}
	return q
}

// Push enqueues v at priority p. It returns ErrShed when the class's
// sojourn controller is refusing new work (the queue has room, but
// accepted work is already waiting past target) and ErrFull when the
// class's bounded buffer is at capacity.
func (q *Queue[T]) Push(p Priority, v T) error {
	now := q.cfg.Now()
	q.mu.Lock()
	cls := &q.classes[p]
	var head time.Time
	if len(*cls) > 0 {
		head = (*cls)[0].at
	}
	if q.ctl[p].shouldShed(now, head) {
		q.mu.Unlock()
		return ErrShed
	}
	if len(*cls) >= q.cfg.Depth {
		q.mu.Unlock()
		return ErrFull
	}
	*cls = append(*cls, queued[T]{v: v, at: now})
	q.mu.Unlock()
	select {
	case q.ready <- struct{}{}:
	default:
		// Unreachable: ready's capacity equals the summed class depth
		// bound, and every queued item owns exactly one token.
	}
	return nil
}

// Pop dequeues the next item by weighted priority, blocking until one
// is available. ok is false when ctx is cancelled or the queue closed.
func (q *Queue[T]) Pop(ctx context.Context) (v T, p Priority, ok bool) {
	for {
		select {
		case <-ctx.Done():
			return v, 0, false
		case <-q.closed:
			return v, 0, false
		case <-q.ready:
			if v, p, ok = q.take(); ok {
				return v, p, true
			}
			// Token raced a TryPop drain; keep waiting.
		}
	}
}

// TryPop dequeues without blocking (shutdown drains use it).
func (q *Queue[T]) TryPop() (v T, p Priority, ok bool) {
	select {
	case <-q.ready:
		return q.take()
	default:
		var zero T
		return zero, 0, false
	}
}

// take removes one item under the weighted-service discipline:
// interactive first, except that once InteractiveWeight consecutive
// interactive items have been served while batch waited, the next
// service goes to batch (so batch drains at ≥ 1/(weight+1) of the
// service rate and never starves).
func (q *Queue[T]) take() (v T, p Priority, ok bool) {
	now := q.cfg.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	ni, nb := len(q.classes[Interactive]), len(q.classes[Batch])
	switch {
	case ni == 0 && nb == 0:
		var zero T
		return zero, 0, false
	case ni == 0:
		p = Batch
	case nb == 0:
		p = Interactive
		q.served = 0
	case q.served >= q.cfg.InteractiveWeight:
		p = Batch
	default:
		p = Interactive
	}
	if p == Batch {
		q.served = 0
	} else if nb > 0 {
		q.served++
	}
	cls := &q.classes[p]
	it := (*cls)[0]
	*cls = (*cls)[1:]
	sojourn := now.Sub(it.at)
	q.ctl[p].observe(now, sojourn)
	q.observeDrainLocked(now)
	return it.v, p, true
}

// observeDrainLocked updates the EWMA of the inter-dequeue interval.
func (q *Queue[T]) observeDrainLocked(now time.Time) {
	if !q.lastPop.IsZero() {
		dt := now.Sub(q.lastPop).Seconds()
		if dt >= 0 {
			if q.ewmaInterval == 0 {
				q.ewmaInterval = dt
			} else {
				q.ewmaInterval = 0.8*q.ewmaInterval + 0.2*dt
			}
		}
	}
	q.lastPop = now
}

// RetryAfterSeconds is the adaptive Retry-After estimate: current
// backlog times the estimated per-item drain interval, floored at 1s
// and clamped at MaxRetryAfterSeconds. When the drain has stalled (no
// recent dequeue), the time since the last dequeue stands in for the
// interval estimate, so a wedged pool reports the clamp rather than a
// cheerful "1".
func (q *Queue[T]) RetryAfterSeconds() int {
	now := q.cfg.Now()
	q.mu.Lock()
	depth := len(q.classes[Interactive]) + len(q.classes[Batch])
	interval := q.ewmaInterval
	if !q.lastPop.IsZero() {
		if idle := now.Sub(q.lastPop).Seconds(); idle > interval {
			interval = idle
		}
	}
	q.mu.Unlock()
	if depth == 0 || interval <= 0 {
		return 1
	}
	est := int(math.Ceil(float64(depth) * interval))
	if est < 1 {
		est = 1
	}
	if est > MaxRetryAfterSeconds {
		est = MaxRetryAfterSeconds
	}
	return est
}

// Len reports the total backlog across both classes.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.classes[Interactive]) + len(q.classes[Batch])
}

// Capacity reports the summed depth bound across classes.
func (q *Queue[T]) Capacity() int { return numPriorities * q.cfg.Depth }

// Close releases every blocked Pop. Items still queued remain
// drainable via TryPop. Safe to call twice.
func (q *Queue[T]) Close() { q.once.Do(func() { close(q.closed) }) }
