// Package cli holds the argument-parsing helpers shared by the command
// line tools (cmd/bsched, cmd/bsim), kept here so they are testable.
package cli

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"bsched/internal/deps"
	"bsched/internal/experiments"
	"bsched/internal/machine"
	"bsched/internal/sched"
)

// ReadInput returns the contents of path, or of stdin when path is empty
// or "-".
func ReadInput(path string) (string, error) {
	if path == "" || path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

// ParseProc parses a processor model name: "unlimited", "max<k>" or
// "len<k>", optionally suffixed with "x<width>" for superscalar issue
// ("unlimitedx4", "max8x2").
func ParseProc(s string) (machine.Config, error) {
	if cfg, ok := parseBaseProc(s); ok {
		return cfg, nil
	}
	if i := strings.LastIndexByte(s, 'x'); i > 0 {
		width, err := strconv.Atoi(s[i+1:])
		if err == nil && width >= 1 {
			if cfg, ok := parseBaseProc(s[:i]); ok {
				return cfg.Wide(width), nil
			}
		}
	}
	return machine.Config{}, fmt.Errorf("unknown processor %q (want unlimited, max<k> or len<k>, optionally x<width>)", s)
}

func parseBaseProc(s string) (machine.Config, bool) {
	if s == "unlimited" {
		return machine.UNLIMITED(), true
	}
	if rest, ok := strings.CutPrefix(s, "max"); ok {
		if k, err := strconv.Atoi(rest); err == nil && k > 0 {
			return machine.MAX(k), true
		}
	}
	if rest, ok := strings.CutPrefix(s, "len"); ok {
		if k, err := strconv.Atoi(rest); err == nil && k > 0 {
			return machine.LEN(k), true
		}
	}
	return machine.Config{}, false
}

// ParseAlias parses an alias oracle name.
func ParseAlias(s string) (deps.AliasMode, error) {
	switch s {
	case "disjoint":
		return deps.AliasDisjoint, nil
	case "conservative":
		return deps.AliasConservative, nil
	}
	return 0, fmt.Errorf("unknown alias mode %q (want disjoint or conservative)", s)
}

// PickScheduler resolves a policy name ("balanced", "traditional",
// "average") against the runner, using lat for the traditional one.
func PickScheduler(r *experiments.Runner, kind string, lat float64) (experiments.SchedulerKind, error) {
	switch kind {
	case sched.PolicyBalanced:
		return r.BalancedSched(), nil
	case sched.PolicyTraditional:
		if err := CheckLatency(lat); err != nil {
			return experiments.SchedulerKind{}, err
		}
		return experiments.TraditionalSched(lat), nil
	case sched.PolicyAverage:
		return r.AverageSched(), nil
	}
	return experiments.SchedulerKind{}, fmt.Errorf("unknown scheduler %q", kind)
}

// CheckLatency validates a user-supplied optimistic load latency before
// it reaches sched.TraditionalWeights, which treats a latency below 1 as
// a programmer error and panics.
func CheckLatency(lat float64) error {
	if !(lat >= 1) { // also rejects NaN
		return fmt.Errorf("load latency %g out of range [1, ∞)", lat)
	}
	return nil
}
