// Package profiler captures periodic and incident-triggered CPU/heap
// pprof profiles into a bounded on-disk ring, so "what was the daemon
// doing when the breaker opened" is answerable after the fact without
// having had a pprof session attached. Profiles land as
// `<unixnano>-<seq>-<kind>-<reason>.pprof` files under one directory,
// oldest files deleted once the ring exceeds its bound; GET
// /v1/profiles serves the index.
//
// Three capture paths share one ring:
//
//   - periodic: every Interval, a heap profile plus a CPUDuration-long
//     CPU profile (reason "periodic") — the continuous baseline;
//   - Trigger(reason): an immediate capture, rate-limited by Cooldown —
//     wired to breaker-open transitions so overload incidents come with
//     a profile attached;
//   - Event(reason): burst detection — BurstThreshold events inside
//     BurstWindow escalate to one Trigger — wired to request sheds so a
//     shed storm profiles itself without profiling every single shed.
//
// All methods are nil-receiver safe: a daemon without -profile-dir
// carries a nil *Profiler and every call is a no-op.
package profiler

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"bsched/internal/obs"
)

// Defaults for zero Config fields.
const (
	DefaultInterval       = time.Minute
	DefaultCPUDuration    = time.Second
	DefaultMaxFiles       = 64
	DefaultCooldown       = 30 * time.Second
	DefaultBurstThreshold = 8
	DefaultBurstWindow    = 10 * time.Second
)

// Config configures a Profiler. Dir is required; every other zero field
// takes its Default. Interval < 0 disables the periodic loop (captures
// then only happen via Trigger/Event).
type Config struct {
	Dir            string
	Interval       time.Duration
	CPUDuration    time.Duration
	MaxFiles       int
	Cooldown       time.Duration
	BurstThreshold int
	BurstWindow    time.Duration
	// Captures, when set, counts each captured profile file by kind
	// ("cpu" or "heap") and reason, labeled in that order.
	Captures *obs.CounterVec
	// Logger, when set, receives capture failures.
	Logger *obs.Logger
}

// Entry is one retained profile in the ring, newest first in Index.
type Entry struct {
	Name      string    `json:"name"`
	Kind      string    `json:"kind"`
	Reason    string    `json:"reason"`
	Time      time.Time `json:"time"`
	SizeBytes int64     `json:"size_bytes"`
}

// Profiler owns the on-disk profile ring. Create with New, start the
// periodic loop with Start, stop with Close.
type Profiler struct {
	cfg Config

	mu          sync.Mutex
	entries     []Entry // oldest first
	seq         int
	lastTrigger time.Time
	bursts      map[string][]time.Time
	capturing   bool
	closed      bool

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New builds a profiler over cfg.Dir, creating the directory and
// adopting any profile files a previous process left there (so the ring
// bound holds across restarts).
func New(cfg Config) (*Profiler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("profiler: empty dir")
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = DefaultCPUDuration
	}
	if cfg.MaxFiles <= 0 {
		cfg.MaxFiles = DefaultMaxFiles
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.BurstThreshold <= 0 {
		cfg.BurstThreshold = DefaultBurstThreshold
	}
	if cfg.BurstWindow <= 0 {
		cfg.BurstWindow = DefaultBurstWindow
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("profiler: %w", err)
	}
	p := &Profiler{
		cfg:    cfg,
		bursts: make(map[string][]time.Time),
		done:   make(chan struct{}),
	}
	p.adoptExisting()
	return p, nil
}

func (p *Profiler) logf(format string, args ...any) {
	p.cfg.Logger.Log("profiler", "msg", fmt.Sprintf(format, args...))
}

// adoptExisting indexes profile files left by a previous process.
func (p *Profiler) adoptExisting() {
	des, err := os.ReadDir(p.cfg.Dir)
	if err != nil {
		return
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".pprof") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		kind, reason := parseName(name)
		p.entries = append(p.entries, Entry{
			Name: name, Kind: kind, Reason: reason,
			Time: info.ModTime(), SizeBytes: info.Size(),
		})
	}
	sort.Slice(p.entries, func(i, j int) bool { return p.entries[i].Name < p.entries[j].Name })
	p.pruneLocked()
}

// parseName recovers kind and reason from <ts>-<seq>-<kind>-<reason>.pprof.
func parseName(name string) (kind, reason string) {
	parts := strings.SplitN(strings.TrimSuffix(name, ".pprof"), "-", 4)
	if len(parts) == 4 {
		return parts[2], parts[3]
	}
	return "unknown", "unknown"
}

// Start launches the periodic capture loop (unless Interval < 0).
func (p *Profiler) Start() {
	if p == nil || p.cfg.Interval < 0 {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-t.C:
				p.capture("periodic")
			}
		}
	}()
}

// Trigger requests an immediate asynchronous capture, rate-limited by
// the cooldown so a flapping breaker does not fill the ring.
func (p *Profiler) Trigger(reason string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	now := time.Now()
	if p.closed || (!p.lastTrigger.IsZero() && now.Sub(p.lastTrigger) < p.cfg.Cooldown) {
		p.mu.Unlock()
		return
	}
	p.lastTrigger = now
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		p.capture(reason)
	}()
}

// Event records one occurrence of reason (e.g. one shed request); a
// burst — BurstThreshold occurrences within BurstWindow — escalates to
// a Trigger.
func (p *Profiler) Event(reason string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	now := time.Now()
	ts := p.bursts[reason]
	cut := now.Add(-p.cfg.BurstWindow)
	for len(ts) > 0 && ts[0].Before(cut) {
		ts = ts[1:]
	}
	ts = append(ts, now)
	if len(ts) >= p.cfg.BurstThreshold {
		p.bursts[reason] = nil
		p.mu.Unlock()
		p.Trigger(reason)
		return
	}
	p.bursts[reason] = ts
	p.mu.Unlock()
}

// capture writes one heap profile and one CPU profile. Captures are
// serialized: a capture arriving while one runs is dropped (the running
// one describes the same moment). The reason is sanitized here, once,
// so the file name, the index entry and the counter's label agree with
// what a restart reads back from the name.
func (p *Profiler) capture(reason string) {
	reason = sanitizeReason(reason)
	p.mu.Lock()
	if p.capturing || p.closed {
		p.mu.Unlock()
		return
	}
	p.capturing = true
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.capturing = false
		p.mu.Unlock()
	}()

	p.writeHeap(reason)
	p.writeCPU(reason)
}

func (p *Profiler) writeHeap(reason string) {
	name, f, err := p.create("heap", reason)
	if err != nil {
		p.logf("profiler: heap: %v", err)
		return
	}
	err = pprof.WriteHeapProfile(f)
	cerr := f.Close()
	if err != nil || cerr != nil {
		p.logf("profiler: heap profile: %v / %v", err, cerr)
		os.Remove(filepath.Join(p.cfg.Dir, name))
		return
	}
	p.record(name, "heap", reason)
}

func (p *Profiler) writeCPU(reason string) {
	name, f, err := p.create("cpu", reason)
	if err != nil {
		p.logf("profiler: cpu: %v", err)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		// Another CPU profile is running (e.g. an operator's pprof
		// session via -pprof); skip rather than fight over it.
		f.Close()
		os.Remove(filepath.Join(p.cfg.Dir, name))
		p.logf("profiler: cpu profile skipped: %v", err)
		return
	}
	select {
	case <-time.After(p.cfg.CPUDuration):
	case <-p.done:
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		p.logf("profiler: cpu profile close: %v", err)
		os.Remove(filepath.Join(p.cfg.Dir, name))
		return
	}
	p.record(name, "cpu", reason)
}

// create opens a fresh profile file with the ring's naming scheme.
func (p *Profiler) create(kind, reason string) (string, *os.File, error) {
	p.mu.Lock()
	p.seq++
	seq := p.seq
	p.mu.Unlock()
	name := fmt.Sprintf("%d-%04d-%s-%s.pprof", time.Now().UnixNano(), seq, kind, reason)
	f, err := os.Create(filepath.Join(p.cfg.Dir, name))
	return name, f, err
}

// sanitizeReason keeps reasons filename- and URL-safe: every byte
// outside [A-Za-z0-9_.] becomes '_', so "breaker-open" is captured as
// "breaker_open".
func sanitizeReason(reason string) string {
	var b strings.Builder
	for _, c := range reason {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '.':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "unknown"
	}
	return b.String()
}

// record indexes a finished profile and prunes the ring.
func (p *Profiler) record(name, kind, reason string) {
	var size int64
	if info, err := os.Stat(filepath.Join(p.cfg.Dir, name)); err == nil {
		size = info.Size()
	}
	p.mu.Lock()
	p.entries = append(p.entries, Entry{
		Name: name, Kind: kind, Reason: reason, Time: time.Now(), SizeBytes: size,
	})
	p.pruneLocked()
	p.mu.Unlock()
	if p.cfg.Captures != nil {
		p.cfg.Captures.With(kind, reason).Inc()
	}
}

// pruneLocked deletes the oldest files beyond MaxFiles. Callers hold mu.
func (p *Profiler) pruneLocked() {
	for len(p.entries) > p.cfg.MaxFiles {
		os.Remove(filepath.Join(p.cfg.Dir, p.entries[0].Name))
		p.entries = p.entries[1:]
	}
}

// Index returns the retained profiles, newest first.
func (p *Profiler) Index() []Entry {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Entry, len(p.entries))
	for i, e := range p.entries {
		out[len(out)-1-i] = e
	}
	return out
}

// Len reports how many profiles the ring currently holds.
func (p *Profiler) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Open returns the named profile file for download, rejecting any name
// that is not exactly a retained ring entry (no path traversal).
func (p *Profiler) Open(name string) (*os.File, error) {
	if p == nil {
		return nil, os.ErrNotExist
	}
	p.mu.Lock()
	found := false
	for _, e := range p.entries {
		if e.Name == name {
			found = true
			break
		}
	}
	p.mu.Unlock()
	if !found {
		return nil, os.ErrNotExist
	}
	return os.Open(filepath.Join(p.cfg.Dir, name))
}

// Close stops the periodic loop and waits for any in-flight capture.
func (p *Profiler) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.done)
		p.wg.Wait()
	})
}
