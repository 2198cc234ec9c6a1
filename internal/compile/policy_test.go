package compile

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bsched/internal/budget"
	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/paperdag"
	"bsched/internal/sched"
)

func parseBlock(t *testing.T, src string) *ir.Block {
	t.Helper()
	prog, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Blocks()[0]
}

const loadySrc = `func f
block b freq=1
v0 = load a[0]
v1 = load b[8]
v2 = add v0, v1
v3 = add v2, v0
liveout v3
end`

const loadFreeSrc = `func f
block b freq=1
v0 = const 1
v1 = const 2
v2 = add v0, v1
v3 = mul v2, v0
liveout v3
end`

// TestPolicyForced compiles one block under every registered policy:
// all must succeed, record the forced policy name, and emit a complete
// schedule.
func TestPolicyForced(t *testing.T) {
	for _, name := range sched.PolicyNames() {
		blk := parseBlock(t, loadySrc)
		res, err := RunBlock(context.Background(), blk, Options{Policy: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Policy != name {
			t.Fatalf("%s: BlockResult.Policy = %q", name, res.Policy)
		}
		if len(res.Block.Instrs) < len(blk.Instrs) {
			t.Fatalf("%s: schedule lost instructions (%d < %d)", name, len(res.Block.Instrs), len(blk.Instrs))
		}
		if res.Degraded() {
			t.Fatalf("%s: degraded unexpectedly: %v", name, res.Degradations)
		}
	}
}

// TestPolicyBalancedMatchesLegacy pins the compatibility contract: a
// forced "balanced" policy is byte-identical to the default (empty)
// policy every pre-portfolio caller compiles under, whole pipeline
// included, and both record balanced.
func TestPolicyBalancedMatchesLegacy(t *testing.T) {
	for _, src := range []string{loadySrc, loadFreeSrc} {
		legacy, err := RunBlock(context.Background(), parseBlock(t, src), Options{})
		if err != nil {
			t.Fatal(err)
		}
		forced, err := RunBlock(context.Background(), parseBlock(t, src), Options{Policy: sched.PolicyBalanced})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := forced.Block.String(), legacy.Block.String(); got != want {
			t.Fatalf("forced balanced differs from legacy:\n%s\nvs\n%s", got, want)
		}
		if legacy.Policy != sched.PolicyBalanced || forced.Policy != sched.PolicyBalanced {
			t.Fatalf("policies recorded as %q / %q", legacy.Policy, forced.Policy)
		}
	}
}

// TestPolicyCoreChances: Options.Core reaches the policy rung, so
// Core.Chances = core.ChancesUnionFind — ablation A2's only way in —
// swaps the exact DP for the union-find sketch inside the balanced
// policy. On Figure 1 the two disagree (3 against 1 + 4/3 per load).
func TestPolicyCoreChances(t *testing.T) {
	blk := paperdag.Figure1().Block
	g := deps.Build(blk, deps.BuildOptions{})
	var got [][]float64
	for _, ch := range []core.ChancesMethod{core.ChancesDP, core.ChancesUnionFind} {
		copts := core.Options{Chances: ch}
		res, err := RunBlock(context.Background(), blk, Options{Core: copts, SkipRegalloc: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := core.Weights(g, copts); !reflect.DeepEqual(res.Pass1.Weights, want) {
			t.Fatalf("chances %d: pass-1 weights %v, want %v", ch, res.Pass1.Weights, want)
		}
		got = append(got, res.Pass1.Weights)
	}
	if reflect.DeepEqual(got[0], got[1]) {
		t.Fatal("union-find Chances compiled the same weights as the exact DP")
	}
}

// TestPolicyAuto pins the decision rule's routing: load-free blocks go
// critical-path, load-bearing blocks go balanced, and pass 2 reuses
// pass 1's pick (one policy per block).
func TestPolicyAuto(t *testing.T) {
	res, err := RunBlock(context.Background(), parseBlock(t, loadFreeSrc), Options{Policy: sched.PolicyAuto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != sched.PolicyCriticalPath {
		t.Fatalf("auto on load-free block picked %q, want critical-path", res.Policy)
	}
	res, err = RunBlock(context.Background(), parseBlock(t, loadySrc), Options{Policy: sched.PolicyAuto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != sched.PolicyBalanced {
		t.Fatalf("auto on loady block picked %q, want balanced", res.Policy)
	}
}

// TestPolicyUnknownRejected pins validation: an unregistered policy is
// an options error, not a degradation.
func TestPolicyUnknownRejected(t *testing.T) {
	_, err := RunBlock(context.Background(), parseBlock(t, loadySrc), Options{Policy: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown scheduling policy") {
		t.Fatalf("err = %v, want unknown-policy options error", err)
	}
}

// TestPolicyDegradationNamesPolicy exercises satellite coverage for
// policy selection under degradation: a starved budget must walk every
// policy down the existing ladder to a valid schedule, and every
// degradation event must name the policy it happened under.
func TestPolicyDegradationNamesPolicy(t *testing.T) {
	for _, name := range append(sched.PolicyNames(), sched.PolicyAuto) {
		blk := parseBlock(t, loadySrc)
		res, err := RunBlock(context.Background(), blk, Options{
			Policy:       name,
			SkipRegalloc: true,
			BlockBudget:  1, // starve every budgeted rung
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Degraded() {
			t.Fatalf("%s: budget 1 did not degrade", name)
		}
		wantPolicy := name
		if name == sched.PolicyAuto {
			// DAG construction itself starved, so auto could not inspect
			// features and fell back to the rule's default arm.
			wantPolicy = sched.PolicyBalanced
		}
		if res.Policy != wantPolicy {
			t.Fatalf("%s: BlockResult.Policy = %q, want %q", name, res.Policy, wantPolicy)
		}
		for _, e := range res.Degradations {
			if e.Policy != wantPolicy {
				t.Fatalf("%s: degradation %v does not name policy %q", name, e, wantPolicy)
			}
		}
		// The ladder floor still yields a complete, valid schedule.
		if len(res.Block.Instrs) != len(blk.Instrs) {
			t.Fatalf("%s: degraded schedule incomplete", name)
		}
	}
}

// TestPolicyWeightsLadder pins the single-rung weights ladder for every
// registered policy: under a budget that fits DAG construction and
// scheduling but not the balanced analysis, a pass records at most one
// weights downgrade, named policy:<name> → fixed-latency, exactly when
// the policy's own weighting charges more than the budget — and the
// schedule stays correct either way.
func TestPolicyWeightsLadder(t *testing.T) {
	blk := chainBlock(t, 6, 8)
	g, weightsUsed := ladderCosts(t, blk)
	starved := weightsUsed - 1
	for _, name := range sched.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			p, _ := sched.PolicyByName(name)
			pb := budget.New(nil, 0)
			if _, err := p.Weights(g, sched.PolicyConfig{}, pb); err != nil {
				t.Fatalf("unlimited weights: %v", err)
			}
			res, err := RunBlock(context.Background(), blk, Options{
				Policy:       name,
				SkipRegalloc: true,
				BlockBudget:  starved,
			})
			if err != nil {
				t.Fatal(err)
			}
			perPass := map[int]int{}
			for _, e := range res.Degradations {
				if e.Stage != "weights" {
					t.Fatalf("unexpected %v: only the weights stage should starve", e)
				}
				perPass[e.Pass]++
				if e.From != RungPolicyPrefix+name || e.To != RungFixedLat || e.Policy != name {
					t.Fatalf("weights degradation %v (policy %q), want policy:%s → %s", e, e.Policy, name, RungFixedLat)
				}
			}
			want := 0
			if pb.Used() > starved {
				want = 1
			}
			if perPass[1] != want || len(perPass) > 1 {
				t.Fatalf("weights events per pass %v, want %d in pass 1 (policy charges %d of %d)",
					perPass, want, pb.Used(), starved)
			}
			checkSemantics(t, blk, res)
		})
	}
}

// TestPolicyWeightsObserveCancelledContext: the policies that run the
// balanced analysis — average included, which averages its result — poll
// the request's context inside it. With a dead context a block whose
// analysis passes the context poll falls to fixed-latency weights, while
// DAG construction and scheduling, which stay below the poll, do not
// degrade.
func TestPolicyWeightsObserveCancelledContext(t *testing.T) {
	// 60 constants and 10 loads of distinct arrays: no dependences, so
	// the analysis charges 70 + 2·70·69 units, past the 8192-unit poll,
	// while the DAG and the schedule each charge under 5000.
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, "v%d = const %d\n", i, i)
	}
	for i := 60; i < 70; i++ {
		fmt.Fprintf(&sb, "v%d = load a%d[0]\n", i, i)
	}
	blk, err := ir.ParseBlock(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{sched.PolicyAverage, sched.PolicyBalanced, sched.PolicyBalancedDense} {
		t.Run(name, func(t *testing.T) {
			res, err := RunBlock(ctx, blk, Options{Policy: name, SkipRegalloc: true, BlockBudget: -1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Degradations) != 1 {
				t.Fatalf("degradations = %v, want one weights event", eventSummaries(res.Degradations))
			}
			e := res.Degradations[0]
			if e.Stage != "weights" || e.From != RungPolicyPrefix+name || e.To != RungFixedLat || e.Policy != name {
				t.Fatalf("degradation %v, want weights policy:%s → %s", e, name, RungFixedLat)
			}
			if !e.Deadline || !strings.Contains(e.Reason, "context canceled") {
				t.Fatalf("degradation %v not attributed to the cancelled context", e)
			}
			checkSemantics(t, blk, res)
		})
	}
}
