package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// fewer, and the percentile is one or two outliers rather than a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses a percentile with fewer than minBeyond samples beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if beyond := float64(len(xs)) * (1 - p); beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %.1f beyond it, want >= %d",
			100*p, len(xs), beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)], nil
}

// tailPercentile is percentile, except that with too few samples it
// falls back to the highest percentile that still has minBeyond samples
// beyond it (the half-second phases of a short run). ok reports whether p
// itself was supported.
func tailPercentile(xs []float64, p float64) (v float64, ok bool) {
	if v, err := percentile(xs, p); err == nil {
		return v, true
	}
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(len(s)-minBeyond-1, 0)], false
}

// windows is how many equal windows a timed phase is cut into. A figure
// reported for a phase is the median of its windows' figures, so that a
// burst of interference from outside the benchmark (other tenants of a
// small shared machine) moves one window rather than the result.
const windows = 5

// windowedPercentile cuts xs, in arrival order, into at most windows
// equal runs that each keep minBeyond samples beyond the p-quantile, and
// returns the median of the runs' p-quantiles. With too few samples for
// even one run it returns percentile's refusal.
func windowedPercentile(xs []float64, p float64) (float64, error) {
	perRun := int(math.Ceil(minBeyond/(1-p) - 1e-9))
	w := min(len(xs)/perRun, windows)
	if w == 0 {
		return percentile(xs, p)
	}
	runs := make([]float64, w)
	for k := range runs {
		v, err := percentile(xs[k*len(xs)/w:(k+1)*len(xs)/w], p)
		if err != nil {
			return 0, err
		}
		runs[k] = v
	}
	return median(runs), nil
}

// phasePercentile is windowedPercentile, except that a phase too brief
// for the tail (a short run, or an open loop that skipped requests) falls
// back to tailPercentile, with a note on o saying so.
func phasePercentile(o *outcome, xs []float64, p float64) float64 {
	if v, err := windowedPercentile(xs, p); err == nil {
		return v
	}
	v, _ := tailPercentile(xs, p)
	o.notef("%d latency samples are too few for p%g; reporting the highest percentile with %d beyond it",
		len(xs), 100*p, minBeyond)
	return v
}

// windowCounts counts the offsets at falling in each of the windows equal
// windows of dur.
func windowCounts(at []time.Duration, dur time.Duration) []float64 {
	counts := make([]float64, windows)
	for _, t := range at {
		if w := int(t * windows / dur); w >= 0 && w < windows {
			counts[w]++
		}
	}
	return counts
}

// ticks is the first line of /proc/stat: clock ticks summed over every
// CPU, all states (user through steal) and those the hypervisor stole.
type ticks struct{ steal, total int64 }

func readTicks() (ticks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	if len(f) < 9 || f[0] != "cpu" {
		return ticks{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var t ticks
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return ticks{}, fmt.Errorf("/proc/stat: %w", err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// unstolen returns the share of the CPU time between a and b that the
// hypervisor left the guest: 1 where nothing was stolen. It is floored at
// a tenth, so a window stolen outright cannot divide by zero.
func unstolen(a, b ticks) float64 {
	if b.total <= a.total {
		return 1
	}
	return max(1-float64(b.steal-a.steal)/float64(b.total-a.total), 0.1)
}

// sampleTicks reads /proc/stat at start and at the end of each window of
// dur.
func sampleTicks(start time.Time, dur time.Duration) ([]ticks, error) {
	var out []ticks
	for k := 0; k <= windows; k++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(k) / windows)))
		t, err := readTicks()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// windowOf returns the window of dur that offset at falls in, the last
// one for an offset past dur.
func windowOf(at, dur time.Duration) int {
	return min(max(int(at*windows/dur), 0), windows-1)
}

// unstolenRate returns the median over the windows of dur of the
// completions per second of CPU time the guest was given in each: at
// holds the completion offsets, and each window's length is scaled by the
// share of CPU time the hypervisor left the guest in it (tk, from
// sampleTicks). Steal slows a saturated two-vCPU guest by more than the
// share stolen, so this halves the spread of the wall-clock rate without
// removing it.
func unstolenRate(at []time.Duration, dur time.Duration, tk []ticks) float64 {
	secs := dur.Seconds() / windows
	var rates []float64
	for k, n := range windowCounts(at, dur) {
		rates = append(rates, n/(secs*unstolen(tk[k], tk[k+1])))
	}
	return median(rates)
}

// cpuPerCompletion returns the median over the windows of dur of the CPU
// time spent in a window per completion in it, in ms. cpu holds the
// cumulative CPU time at the start of each window and at the end of the
// last.
func cpuPerCompletion(cpu, at []time.Duration, dur time.Duration) float64 {
	var per []float64
	for k, n := range windowCounts(at, dur) {
		if n > 0 {
			per = append(per, ms(cpu[k+1]-cpu[k])/n)
		}
	}
	return median(per)
}

// sampleWindows reads t's CPU time at start and at the end of each window
// of dur, and the peak resident set of t's process in each window.
func sampleWindows(t target, start time.Time, dur time.Duration) (cpu []time.Duration, peaks []float64, err error) {
	for k := 0; k <= windows; k++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(k) / windows)))
		v, err := t.cpu()
		if err != nil {
			return nil, nil, err
		}
		cpu = append(cpu, v)
		if k > 0 {
			mb, err := peakRSSMB(t.pid())
			if err != nil {
				return nil, nil, err
			}
			peaks = append(peaks, mb)
		}
		if err := resetPeakRSS(t.pid()); err != nil {
			return nil, nil, err
		}
	}
	return cpu, peaks, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median of xs (mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses (exclusive), so spreads
// printed here match ones computed with Python's statistics module. It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// promSample is one line of the Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one parsed /metrics body.
type scrape []promSample

// parseProm parses the Prometheus text format bschedd renders: comment
// lines, then `name{k="v",...} value` samples.
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := promSample{name: line[:sp], value: v, labels: map[string]string{}}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds every sample of the family name whose labels include want.
func (s scrape) sum(name string, want ...string) float64 {
	total := 0.0
	for _, p := range s {
		if p.name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(want); i += 2 {
			if p.labels[want[i]] != want[i+1] {
				match = false
			}
		}
		if match {
			total += p.value
		}
	}
	return total
}

// procCPU returns the CPU time the live threads of process pid have run,
// summed from /proc/<pid>/task/*/schedstat. Unlike the utime and stime
// of /proc/<pid>/stat, which count whole 10 ms ticks, schedstat counts
// nanoseconds, fine enough for a daemon start-up of a few milliseconds.
// In a virtual machine whose kernel accounts steal time
// (CONFIG_PARAVIRT_TIME_ACCOUNTING), time the hypervisor gave to other
// guests is left out of both. Go keeps the threads it starts, so the live
// threads hold all of a Go process's CPU time.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, task := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, task.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited since the directory was read
		}
		if err != nil {
			return 0, err
		}
		// Fields: time on the CPU (ns), time waiting to run, timeslices.
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, task.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, task.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets process pid's peak resident set (VmHWM) back to its
// current resident set, so that a later peakRSSMB covers only what ran
// in between.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMB returns the peak resident set (VmHWM) of process pid in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
