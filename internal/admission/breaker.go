package admission

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed: traffic flows, failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: traffic is refused until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe is in flight; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

// String names the state ("closed", "open", "half-open").
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Breaker defaults.
const (
	// DefaultBreakerThreshold is how many consecutive failures trip the
	// breaker when BreakerConfig.Threshold is zero.
	DefaultBreakerThreshold = 5
	// DefaultBreakerCooldown is how long the breaker stays open before
	// allowing a half-open probe.
	DefaultBreakerCooldown = 5 * time.Second
)

// BreakerConfig sizes a Breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips the breaker
	// open. Zero means DefaultBreakerThreshold.
	Threshold int
	// Cooldown is how long the breaker stays open before a probe. Zero
	// means DefaultBreakerCooldown.
	Cooldown time.Duration
	// Now is the clock; nil means time.Now.
	Now func() time.Time
	// OnTransition, when non-nil, is called (outside the breaker's lock)
	// on every state change — the metrics hook.
	OnTransition func(from, to BreakerState)
}

// Breaker is a consecutive-failure circuit breaker: Threshold failures
// in a row trip it open; after Cooldown one caller is admitted as a
// half-open probe, and that probe's outcome closes or re-opens it.
// Safe for concurrent use; nil-safe (a nil Breaker always allows and
// ignores outcomes).
type Breaker struct {
	threshold    int
	cooldown     time.Duration
	now          func() time.Time
	onTransition func(from, to BreakerState)

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is outstanding
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultBreakerThreshold
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultBreakerCooldown
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{
		threshold:    cfg.Threshold,
		cooldown:     cfg.Cooldown,
		now:          cfg.Now,
		onTransition: cfg.OnTransition,
	}
}

// Allow reports whether the protected operation may run. Closed always
// allows; open refuses until the cooldown elapses, at which point the
// first caller is admitted as the half-open probe (everyone else keeps
// getting false until the probe resolves via Success or Failure).
//
// Contract: a caller that receives true and actually performs the
// operation must report the outcome with Success or Failure — in the
// half-open state the breaker waits on exactly that report.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	var trans func(from, to BreakerState)
	var from, to BreakerState
	b.mu.Lock()
	allowed := false
	switch b.state {
	case BreakerClosed:
		allowed = true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			from, to = b.state, BreakerHalfOpen
			b.state = BreakerHalfOpen
			b.probing = true
			trans = b.onTransition
			allowed = true
		}
	case BreakerHalfOpen:
		if !b.probing {
			b.probing = true
			allowed = true
		}
	}
	b.mu.Unlock()
	if trans != nil {
		trans(from, to)
	}
	return allowed
}

// Success reports a successful protected operation: it resets the
// failure count and, from half-open, closes the breaker.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	var trans func(from, to BreakerState)
	var from, to BreakerState
	b.mu.Lock()
	b.failures = 0
	if b.state == BreakerHalfOpen {
		from, to = b.state, BreakerClosed
		b.state = BreakerClosed
		b.probing = false
		trans = b.onTransition
	}
	b.mu.Unlock()
	if trans != nil {
		trans(from, to)
	}
}

// Failure reports a failed protected operation: from closed it counts
// toward the trip threshold; from half-open it re-opens immediately.
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
	var trans func(from, to BreakerState)
	var from, to BreakerState
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			from, to = b.state, BreakerOpen
			b.state = BreakerOpen
			b.openedAt = b.now()
			trans = b.onTransition
		}
	case BreakerHalfOpen:
		from, to = b.state, BreakerOpen
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.probing = false
		b.failures = b.threshold // still at the threshold: one more failure re-trips
		trans = b.onTransition
	case BreakerOpen:
		// Late failure report from before the trip; nothing to do.
	}
	b.mu.Unlock()
	if trans != nil {
		trans(from, to)
	}
}

// State returns the current position.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
