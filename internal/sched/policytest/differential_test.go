package policytest

// The differential harness proper: every registered policy, over every
// corpus block, must produce a dependency-safe, register-allocatable
// schedule; and the static decision rule's pick must stay within the
// documented regret bound of the best policy per block, measured by the
// §4.3 simulator. See docs/POLICIES.md for the methodology.

import (
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"bsched/internal/compile"
	"bsched/internal/deps"
	"bsched/internal/paperdag"
	"bsched/internal/sched"
	"bsched/internal/sched/features"
)

// TestPolicyDependencySafety schedules every corpus block under every
// registered policy at the sched layer and checks the result is a
// complete topological order of the code DAG.
func TestPolicyDependencySafety(t *testing.T) {
	for _, c := range Corpus() {
		g := deps.Build(c.Build(), deps.BuildOptions{})
		for _, name := range sched.PolicyNames() {
			p, _ := sched.PolicyByName(name)
			w, err := p.Weights(g, sched.PolicyConfig{}, nil)
			if err != nil {
				t.Fatalf("%s/%s: unbudgeted weights: %v", c.Name, name, err)
			}
			res, _ := sched.Schedule(g, w, sched.Heuristics{}, nil)
			if err := CheckSchedule(g, res); err != nil {
				t.Errorf("%s/%s: %v", c.Name, name, err)
			}
		}
	}
}

// TestPolicyRegisterAllocatability runs every corpus block under every
// policy through the full hardened pipeline — scheduling, register
// allocation, spill insertion, pass 2 — and requires a clean compile:
// no error, no degradation, no lost instructions.
func TestPolicyRegisterAllocatability(t *testing.T) {
	for _, c := range Corpus() {
		want := len(c.Build().Instrs)
		for _, name := range sched.PolicyNames() {
			res, err := compile.RunBlock(context.Background(), c.Build(), compile.Options{Policy: name})
			if err != nil {
				t.Errorf("%s/%s: %v", c.Name, name, err)
				continue
			}
			if res.Degraded() {
				t.Errorf("%s/%s: degraded: %v", c.Name, name, res.Degradations)
			}
			if len(res.Block.Instrs) < want {
				t.Errorf("%s/%s: schedule lost instructions (%d < %d)", c.Name, name, len(res.Block.Instrs), want)
			}
			if res.Policy != name {
				t.Errorf("%s/%s: result records policy %q", c.Name, name, res.Policy)
			}
		}
	}
}

// TestDecisionRuleRegret is the headline assertion: for every corpus
// block and latency model, simulate every policy's pass-1 schedule and
// require the decision rule's pick to be within
// RegretFactor*best + RegretSlack mean cycles of the best policy.
func TestDecisionRuleRegret(t *testing.T) {
	for _, c := range Corpus() {
		g := deps.Build(c.Build(), deps.BuildOptions{})
		pick := sched.Decide(features.Extract(g))
		if _, ok := sched.PolicyByName(pick); !ok {
			t.Fatalf("%s: decision rule picked unregistered policy %q", c.Name, pick)
		}

		// One pass-1 schedule per policy (registers unallocated: the
		// regret statement is about scheduling, not spill placement).
		schedules := map[string]*compile.BlockResult{}
		for _, name := range sched.PolicyNames() {
			res, err := compile.RunBlock(context.Background(), c.Build(),
				compile.Options{Policy: name, SkipRegalloc: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, name, err)
			}
			schedules[name] = res
		}

		for mi, model := range Models() {
			seed := int64(1000*mi + 1) // same draws per policy within a model
			mean := map[string]float64{}
			best := math.Inf(1)
			for name, res := range schedules {
				mean[name] = MeanCycles(res.Block.Instrs, model, seed)
				if mean[name] < best {
					best = mean[name]
				}
			}
			if bound := RegretFactor*best + RegretSlack; mean[pick] > bound {
				t.Errorf("%s under %s: rule picked %q at %.2f cycles, bound %.2f (best %.2f, all %v)",
					c.Name, model.Name(), pick, mean[pick], bound, best, mean)
			}
		}
	}
}

// TestBalancedPolicyGolden pins the compatibility anchor two ways.
// First, registry "balanced" reproduces the paper's figure schedules
// exactly (the same pins sched's own tests hold for core.Weights).
// Second, across the whole corpus the forced "balanced" policy through
// the compile driver is byte-identical to testdata/balanced.golden, the
// output of the raw balanced pipeline that predates the portfolio — the
// portfolio changes nothing it did not intend to.
func TestBalancedPolicyGolden(t *testing.T) {
	bal, _ := sched.PolicyByName(sched.PolicyBalanced)
	goldens := []struct {
		dag  *paperdag.Labeled
		want []string
	}{
		{paperdag.Figure1(), []string{"L0", "X0", "X1", "L1", "X2", "X3", "X4"}}, // Figure 2c
		{paperdag.Figure4(), []string{"L0", "L1", "X0", "X1", "X2", "X3", "X4"}}, // Figure 5
	}
	for _, gold := range goldens {
		g := deps.Build(gold.dag.Block, deps.BuildOptions{})
		w, err := bal.Weights(g, sched.PolicyConfig{}, nil)
		if err != nil {
			t.Fatalf("%s: unbudgeted weights: %v", gold.dag.Block.Label, err)
		}
		res, _ := sched.Schedule(g, w, sched.Heuristics{}, nil)
		if got := gold.dag.Sequence(res.Order); !reflect.DeepEqual(got, gold.want) {
			t.Errorf("%s: balanced policy schedule %v, want %v", gold.dag.Block.Label, got, gold.want)
		}
	}

	var out strings.Builder
	for _, c := range Corpus() {
		forced, err := compile.RunBlock(context.Background(), c.Build(), compile.Options{Policy: sched.PolicyBalanced})
		if err != nil {
			t.Fatalf("%s forced: %v", c.Name, err)
		}
		fmt.Fprintf(&out, "# %s\n%s", c.Name, forced.Block)
	}
	want, err := os.ReadFile("testdata/balanced.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("forced balanced differs from the raw pipeline's testdata/balanced.golden:\n%s", got)
	}
}
