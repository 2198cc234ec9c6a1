// Package chaos is the daemon's fault-injection seam. An Injector is
// parsed from a spec string (the -chaos flag) and consulted at named
// hook points in the serve path; when no fault is configured for a
// hook the calls are cheap no-ops, and a nil *Injector disables the
// seam entirely, so production builds pay nothing.
//
// Spec grammar (semicolon-separated faults, comma-separated options):
//
//	name:key=val,key=val;name:key=val
//
// Known fault names are SlowCompile, DiskError, and LatencySpike.
// Options:
//
//	every=N      fire deterministically on every Nth hit (1 = always)
//	p=F          fire with probability F in [0,1] (mutually exclusive
//	             with every; seeded, reproducible)
//	limit=N      stop firing after N firings (0 = unlimited) — this is
//	             what lets breaker-recovery tests inject a burst of
//	             disk errors and then watch the probe succeed
//	delay=DUR    sleep duration for delay-type faults (e.g. 50ms)
//
// Example: -chaos 'disk-error:every=1,limit=6;slow-compile:p=0.1,delay=200ms'
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Hook names, one per injection point in the daemon.
const (
	// SlowCompile delays the compile stage (worker-side), simulating a
	// pathological scheduling instance.
	SlowCompile = "slow-compile"
	// DiskError makes disk-cache reads and appends fail with ErrInjected,
	// simulating a sick disk; this is what trips the circuit breaker.
	DiskError = "disk-error"
	// LatencySpike delays request handling before admission, simulating
	// network or GC pauses ahead of the queue.
	LatencySpike = "latency-spike"
)

// knownFaults guards against typos in -chaos specs.
var knownFaults = map[string]bool{
	SlowCompile:  true,
	DiskError:    true,
	LatencySpike: true,
}

// ErrInjected is the error returned by error-type faults. The disk
// cache treats it like any other I/O error, which is the point.
var ErrInjected = fmt.Errorf("chaos: injected fault")

// fault is one configured fault's firing rule plus its counters.
type fault struct {
	every int           // fire on every Nth hit; 0 means use p
	p     float64       // firing probability when every == 0
	limit int           // max firings; 0 = unlimited
	delay time.Duration // sleep amount for delay faults

	mu     sync.Mutex
	rng    *rand.Rand
	hits   int64
	fired  int64
	capped bool
}

// shouldFire applies the every/p/limit rules and bumps counters.
func (f *fault) shouldFire() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hits++
	if f.limit > 0 && f.fired >= int64(f.limit) {
		f.capped = true
		return false
	}
	fire := false
	if f.every > 0 {
		fire = f.hits%int64(f.every) == 0
	} else if f.p > 0 {
		fire = f.rng.Float64() < f.p
	}
	if fire {
		f.fired++
	}
	return fire
}

// Injector holds the parsed fault table. All methods are safe for
// concurrent use and nil-safe.
type Injector struct {
	faults map[string]*fault
	sleep  func(time.Duration) // test seam; time.Sleep by default
}

// Parse builds an Injector from a -chaos spec string. An empty spec
// returns nil (no injection). Unknown fault names and malformed
// options are errors, so typos fail fast at startup instead of
// silently injecting nothing.
func Parse(spec string) (*Injector, error) {
	return parseSeeded(spec, time.Now().UnixNano())
}

// parseSeeded is Parse with a fixed RNG seed, for deterministic tests
// of probabilistic faults.
func parseSeeded(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	inj := &Injector{faults: make(map[string]*fault), sleep: time.Sleep}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, opts, _ := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if !knownFaults[name] {
			return nil, fmt.Errorf("chaos: unknown fault %q (known: %s)", name, strings.Join(knownNames(), ", "))
		}
		if _, dup := inj.faults[name]; dup {
			return nil, fmt.Errorf("chaos: fault %q configured twice", name)
		}
		f := &fault{rng: rand.New(rand.NewSource(seed))}
		for _, opt := range strings.Split(opts, ",") {
			opt = strings.TrimSpace(opt)
			if opt == "" {
				continue
			}
			key, val, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("chaos: fault %q: option %q is not key=val", name, opt)
			}
			var err error
			switch key {
			case "every":
				f.every, err = strconv.Atoi(val)
				if err == nil && f.every < 1 {
					err = fmt.Errorf("must be >= 1")
				}
			case "p":
				f.p, err = strconv.ParseFloat(val, 64)
				if err == nil && (f.p < 0 || f.p > 1) {
					err = fmt.Errorf("must be in [0,1]")
				}
			case "limit":
				f.limit, err = strconv.Atoi(val)
				if err == nil && f.limit < 0 {
					err = fmt.Errorf("must be >= 0")
				}
			case "delay":
				f.delay, err = time.ParseDuration(val)
				if err == nil && f.delay < 0 {
					err = fmt.Errorf("must be >= 0")
				}
			default:
				err = fmt.Errorf("unknown option")
			}
			if err != nil {
				return nil, fmt.Errorf("chaos: fault %q: option %s=%s: %v", name, key, val, err)
			}
		}
		if f.every > 0 && f.p > 0 {
			return nil, fmt.Errorf("chaos: fault %q: every and p are mutually exclusive", name)
		}
		if f.every == 0 && f.p == 0 {
			f.every = 1 // bare "disk-error" means always fire
		}
		inj.faults[name] = f
	}
	return inj, nil
}

func knownNames() []string {
	names := make([]string, 0, len(knownFaults))
	for n := range knownFaults {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Err consults the named fault and returns ErrInjected when it fires,
// nil otherwise. Used at error-type hook points (disk reads/writes).
func (inj *Injector) Err(name string) error {
	if inj == nil {
		return nil
	}
	f, ok := inj.faults[name]
	if !ok || !f.shouldFire() {
		return nil
	}
	return ErrInjected
}

// Delay consults the named fault and sleeps its configured delay when
// it fires. Used at latency-type hook points (compile stage, request
// ingress).
func (inj *Injector) Delay(name string) {
	if inj == nil {
		return
	}
	f, ok := inj.faults[name]
	if !ok || !f.shouldFire() {
		return
	}
	if f.delay > 0 {
		inj.sleep(f.delay)
	}
}

// Fired reports how many times the named fault has fired; handy for
// tests asserting the injection actually happened.
func (inj *Injector) Fired(name string) int64 {
	if inj == nil {
		return 0
	}
	f, ok := inj.faults[name]
	if !ok {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// String renders the active fault table for startup logs.
func (inj *Injector) String() string {
	if inj == nil {
		return "off"
	}
	names := make([]string, 0, len(inj.faults))
	for n := range inj.faults {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
