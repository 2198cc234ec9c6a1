package sched

import (
	"sort"

	"bsched/internal/budget"
	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/sched/features"
)

// Registered policy names. PolicyAuto is not a policy: it is the
// selector value that asks the decision rule to pick one per block.
const (
	PolicyBalanced      = "balanced"
	PolicyTraditional   = "traditional"
	PolicyAverage       = "average"
	PolicyBalancedDense = "balanced-dense"
	PolicyCriticalPath  = "critical-path"
	PolicyAuto          = "auto"
)

// PolicyConfig carries the knobs a policy's weighting may consult. The
// zero value is the default configuration.
type PolicyConfig struct {
	// Core tunes the balanced weight computation (chances method, issue
	// slots) for the policies built on it.
	Core core.Options
	// TradLatency is the fixed load latency assumed by the traditional
	// policy; zero means 2, the paper's cache hit time.
	TradLatency float64
}

func (c *PolicyConfig) tradLatency() float64 {
	if c.TradLatency == 0 {
		return 2
	}
	return c.TradLatency
}

// Policy is one named weighting strategy of the scheduling-policy
// portfolio. All policies share the same list scheduler; they differ
// only in the latency weights they assign, exactly as the balanced and
// traditional schedulers of the paper do.
type Policy interface {
	// Name is the policy's registry key ("balanced", "critical-path", …).
	Name() string
	// Description is a one-line summary for documentation and tooling.
	Description() string
	// Weights computes the latency weights for a code DAG under an
	// optional work budget (nil means unlimited). Implementations must
	// be safe for concurrent use.
	Weights(g *deps.Graph, cfg PolicyConfig, wb *budget.Budget) ([]float64, error)
}

// policyReg is the fixed portfolio, keyed by policy name. init fills it
// once; after that it is only read, so lookups need no lock.
var policyReg = map[string]Policy{}

// PolicyByName looks a policy up by its registry key.
func PolicyByName(name string) (Policy, bool) {
	p, ok := policyReg[name]
	return p, ok
}

// PolicyNames returns every registered policy name, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyReg))
	for name := range policyReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DecisionRuleVersion names the static decision rule's revision. It is
// folded into the options fingerprint of "auto" requests, so changing
// the rule re-keys every cached auto-selected schedule (a cached pick
// made by an older rule must not satisfy a request expecting the new
// one). Bump it whenever Decide's mapping changes.
const DecisionRuleVersion = "v1"

// Decide is the static decision rule: it maps a block's features to the
// policy the portfolio schedules it with. The rule is deliberately
// conservative — it departs from balanced only where the differential
// harness (bsched/internal/sched/policytest) shows the pick stays
// within the documented regret bound of the best policy per block:
//
//   - A block with no loads has no latency uncertainty: every policy
//     weights it identically (all ones), so the rule picks the cheapest,
//     critical-path, which skips the Chances analysis entirely.
//   - Everything else schedules balanced, the paper's result.
//
// docs/POLICIES.md documents the rule and the regret methodology.
func Decide(f features.Features) string {
	if f.Loads == 0 {
		return PolicyCriticalPath
	}
	return PolicyBalanced
}

// policyFunc is the built-in Policy implementation: a name, a blurb and
// a weighting function.
type policyFunc struct {
	name, desc string
	weights    func(g *deps.Graph, cfg PolicyConfig, wb *budget.Budget) ([]float64, error)
}

func (p *policyFunc) Name() string        { return p.name }
func (p *policyFunc) Description() string { return p.desc }
func (p *policyFunc) Weights(g *deps.Graph, cfg PolicyConfig, wb *budget.Budget) ([]float64, error) {
	return p.weights(g, cfg, wb)
}

func init() {
	for _, p := range []*policyFunc{{
		name: PolicyBalanced,
		desc: "the paper's balanced weighting: each load's weight shares out the independent instructions that can hide its latency",
		weights: func(g *deps.Graph, cfg PolicyConfig, wb *budget.Budget) ([]float64, error) {
			return core.WeightsBudgeted(g, cfg.Core, wb)
		},
	}, {
		name: PolicyTraditional,
		desc: "fixed-latency baseline: one constant latency per load (the cache hit time), 1 for everything else",
		weights: func(g *deps.Graph, cfg PolicyConfig, _ *budget.Budget) ([]float64, error) {
			return TraditionalWeights(g, cfg.tradLatency()), nil
		},
	}, {
		name: PolicyAverage,
		desc: "the §3 ablation: every load weighted by the block's average load-level parallelism instead of its own",
		weights: func(g *deps.Graph, cfg PolicyConfig, wb *budget.Budget) ([]float64, error) {
			return core.AverageWeights(g, cfg.Core, wb)
		},
	}, {
		name: PolicyBalancedDense,
		desc: "load-density-scaled balanced: load weights' slack credit scaled by the block's load density, stretching latency tolerance on load-heavy blocks",
		weights: func(g *deps.Graph, cfg PolicyConfig, wb *budget.Budget) ([]float64, error) {
			w, err := core.WeightsBudgeted(g, cfg.Core, wb)
			if err != nil {
				return nil, err
			}
			n := g.N()
			loads := 0
			for i := 0; i < n; i++ {
				if g.IsLoad(i) {
					loads++
				}
			}
			if loads == 0 {
				return w, nil
			}
			// Scale in (0.5, 1.5]: sparse blocks shrink the credit toward
			// the fixed-latency baseline, dense blocks stretch it.
			scale := 0.5 + float64(loads)/float64(n)
			for i := 0; i < n; i++ {
				// Explicit latency overrides are measurements, not
				// heuristics — leave them alone.
				if g.IsLoad(i) && g.Instr(i).KnownLatency == 0 {
					w[i] = 1 + (w[i]-1)*scale
				}
			}
			return w, nil
		},
	}, {
		name: PolicyCriticalPath,
		desc: "critical-path-first: unit weights for every instruction, so priority degenerates to DAG height and no latency padding is inserted",
		weights: func(g *deps.Graph, _ PolicyConfig, _ *budget.Budget) ([]float64, error) {
			w := make([]float64, g.N())
			for i := range w {
				w[i] = 1
			}
			return w, nil
		},
	}} {
		policyReg[p.name] = p
	}
}
