package analytic

import (
	"math"
	"math/rand"
	"testing"

	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/machine"
	"bsched/internal/memlat"
	"bsched/internal/paperdag"
	"bsched/internal/sched"
	"bsched/internal/sim"
	"bsched/internal/stats"
)

func TestExpectedExcess(t *testing.T) {
	fixed := memlat.Fixed{Latency: 5}
	cases := []struct {
		gap  int
		want float64
	}{{0, 5}, {3, 2}, {5, 0}, {9, 0}, {-1, 5}}
	for _, c := range cases {
		if got := ExpectedExcess(fixed, c.gap); got != c.want {
			t.Errorf("ExpectedExcess(fixed5, %d) = %g, want %g", c.gap, got, c.want)
		}
	}
	cache := memlat.Cache{HitRate: 0.8, HitLat: 2, MissLat: 10}
	// gap 4: only misses stall, 20% × (10−4).
	if got, want := ExpectedExcess(cache, 4), 0.2*6; math.Abs(got-want) > 1e-12 {
		t.Errorf("ExpectedExcess(cache, 4) = %g, want %g", got, want)
	}
}

// TestExactOnSingleLoad: with one load the non-overlap assumption holds
// exactly; the analytic runtime equals the simulated mean.
func TestExactOnSingleLoad(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = load a[0]
		v1 = const 1
		v2 = const 2
		v3 = addi v0, 1
	`)
	models := []memlat.Distribution{
		memlat.Fixed{Latency: 7},
		memlat.Cache{HitRate: 0.8, HitLat: 2, MissLat: 10},
		memlat.NewNormal(4, 3),
	}
	for _, m := range models {
		est, err := EstimateRuntime(b.Instrs, m)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		runtimes := sim.Trials(b.Instrs, machine.UNLIMITED(), m, rng, sim.Options{}, 60000)
		simMean := stats.Mean(runtimes)
		if math.Abs(est.Runtime()-simMean) > 0.05 {
			t.Errorf("%s: analytic %.3f vs simulated %.3f", m.Name(), est.Runtime(), simMean)
		}
	}
}

// TestLowerBoundInGeneral: with overlapping stalls the analytic estimate
// must not exceed the simulated mean (it ignores interactions).
func TestLowerBoundInGeneral(t *testing.T) {
	l := paperdag.Figure1()
	g := deps.Build(l.Block, deps.BuildOptions{})
	m := memlat.NewNormal(5, 3)
	for _, w := range [][]float64{sched.TraditionalWeights(g, 1), sched.TraditionalWeights(g, 5), core.Weights(g, core.Options{})} {
		res, _ := sched.Schedule(g, w, sched.Heuristics{}, nil)
		est, err := EstimateRuntime(res.Order, m)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		simMean := stats.Mean(sim.Trials(res.Order, machine.UNLIMITED(), m, rng, sim.Options{}, 30000))
		if est.Runtime() > simMean+0.05 {
			t.Errorf("analytic %.3f exceeds simulated %.3f", est.Runtime(), simMean)
		}
		// And it must be a useful bound: above the stall-free floor when
		// stalls exist.
		if simMean > float64(est.Instrs)+0.5 && est.ExpectedStalls == 0 {
			t.Errorf("analytic model blind to stalls (sim mean %.2f)", simMean)
		}
	}
}

// TestAnalyticRanksSchedules: the closed form reproduces Figure 3's
// verdict — the balanced schedule's expected stalls are lowest for a
// mid-range latency distribution.
func TestAnalyticRanksSchedules(t *testing.T) {
	l := paperdag.Figure1()
	g := deps.Build(l.Block, deps.BuildOptions{})
	m := memlat.Fixed{Latency: 3}
	stalls := map[string]float64{}
	for name, w := range map[string][]float64{
		"greedy":   sched.TraditionalWeights(g, 5),
		"lazy":     sched.TraditionalWeights(g, 1),
		"balanced": core.Weights(g, core.Options{}),
	} {
		res, _ := sched.Schedule(g, w, sched.Heuristics{}, nil)
		est, err := EstimateRuntime(res.Order, m)
		if err != nil {
			t.Fatal(err)
		}
		stalls[name] = est.ExpectedStalls
	}
	if stalls["balanced"] >= stalls["greedy"] || stalls["balanced"] >= stalls["lazy"] {
		t.Errorf("balanced not best: %v", stalls)
	}
}

// TestKnownLatencyUsesFixed: a !lat load is charged with its declared
// latency, not the memory model.
func TestKnownLatencyUsesFixed(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = load a[0] !lat=2
		v1 = addi v0, 1
	`)
	est, err := EstimateRuntime(b.Instrs, memlat.Fixed{Latency: 50})
	if err != nil {
		t.Fatal(err)
	}
	if est.ExpectedStalls != 1 { // gap 1, known latency 2
		t.Errorf("ExpectedStalls = %g, want 1", est.ExpectedStalls)
	}
}

// TestPMFsSumToOne: every model's pmf is a probability distribution and
// its mean matches Model.Mean.
func TestPMFsSumToOne(t *testing.T) {
	models := []memlat.Distribution{
		memlat.Fixed{Latency: 4},
		memlat.Cache{HitRate: 0.8, HitLat: 2, MissLat: 10},
		memlat.NewNormal(3, 5),
		memlat.NewMixed(0.8, 2, 30, 5),
		memlat.TwoLevelCache{L1Rate: 0.8, L1Lat: 2, L2Rate: 0.95, L2Lat: 8, MemLat: 40},
		memlat.NewBursty(2, 1, 20, 5, 0.1, 0.3),
	}
	for _, m := range models {
		pmf := m.PMF()
		sum, mean := 0.0, 0.0
		for k, p := range pmf {
			if p < 0 {
				t.Errorf("%s: negative pmf at %d", m.Name(), k)
			}
			sum += p
			mean += float64(k) * p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: pmf sums to %g", m.Name(), sum)
		}
		if math.Abs(mean-m.Mean()) > 1e-9 {
			t.Errorf("%s: pmf mean %g vs Mean() %g", m.Name(), mean, m.Mean())
		}
	}
}
