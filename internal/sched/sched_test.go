package sched

import (
	"reflect"
	"testing"

	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/paperdag"
)

// weighting computes one scheduler's latency weights for a code DAG.
type weighting func(g *deps.Graph) []float64

func traditional(lat float64) weighting {
	return func(g *deps.Graph) []float64 { return TraditionalWeights(g, lat) }
}

func balanced(opts core.Options) weighting {
	return func(g *deps.Graph) []float64 { return core.Weights(g, opts) }
}

// registered weights with the named policy at its default configuration.
func registered(name string) weighting {
	return func(g *deps.Graph) []float64 {
		w, err := policyReg[name].Weights(g, PolicyConfig{}, nil)
		if err != nil {
			panic(err) // a nil budget never trips
		}
		return w
	}
}

// schedule list-schedules g under w with every heuristic and no budget.
func schedule(g *deps.Graph, w weighting) *Result {
	res, err := Schedule(g, w(g), Heuristics{}, nil)
	if err != nil {
		panic(err) // a nil budget never trips
	}
	return res
}

func scheduleNames(t *testing.T, l *paperdag.Labeled, w weighting) ([]string, *Result) {
	t.Helper()
	g := deps.Build(l.Block, deps.BuildOptions{})
	res := schedule(g, w)
	if len(res.Order) != len(l.Block.Instrs) {
		t.Fatalf("scheduled %d of %d instructions", len(res.Order), len(l.Block.Instrs))
	}
	return l.Sequence(res.Order), res
}

// TestFigure2a: the traditional scheduler with load weight 5 produces the
// greedy schedule of Figure 2a: L0 X0 X1 X2 X3 L1 X4.
func TestFigure2a(t *testing.T) {
	got, _ := scheduleNames(t, paperdag.Figure1(), traditional(5))
	want := []string{"L0", "X0", "X1", "X2", "X3", "L1", "X4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schedule = %v, want %v", got, want)
	}
}

// TestFigure2b: the traditional scheduler with load weight 1 produces the
// lazy schedule of Figure 2b: L0 L1 X0 X1 X2 X3 X4.
func TestFigure2b(t *testing.T) {
	got, _ := scheduleNames(t, paperdag.Figure1(), traditional(1))
	want := []string{"L0", "L1", "X0", "X1", "X2", "X3", "X4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schedule = %v, want %v", got, want)
	}
}

// TestFigure2c: the balanced scheduler (weight 3 for both loads) produces
// the schedule of Figure 2c: L0 X0 X1 L1 X2 X3 X4, with no starvation.
func TestFigure2c(t *testing.T) {
	got, res := scheduleNames(t, paperdag.Figure1(), balanced(core.Options{}))
	want := []string{"L0", "X0", "X1", "L1", "X2", "X3", "X4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schedule = %v, want %v", got, want)
	}
	if res.VNops != 0 {
		t.Errorf("balanced schedule inserted %d virtual no-ops, want 0", res.VNops)
	}
}

// TestFigure5: the balanced scheduler on the Figure 4 DAG produces
// Figure 5's schedule: L0 L1 X0 X1 X2 X3 X4.
func TestFigure5(t *testing.T) {
	got, _ := scheduleNames(t, paperdag.Figure4(), balanced(core.Options{}))
	want := []string{"L0", "L1", "X0", "X1", "X2", "X3", "X4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schedule = %v, want %v", got, want)
	}
}

// TestVirtualNoOps: with weight 5 on Figure 1, X4 must wait for L1's
// window; four virtual no-op slots are inserted and then stripped.
func TestVirtualNoOps(t *testing.T) {
	l := paperdag.Figure1()
	g := deps.Build(l.Block, deps.BuildOptions{})
	res := schedule(g, traditional(5))
	if res.VNops != 4 {
		t.Errorf("VNops = %d, want 4", res.VNops)
	}
	for _, in := range res.Order {
		if in.Op == ir.OpVNop {
			t.Errorf("virtual no-op leaked into the final schedule")
		}
	}
}

// TestPriorities: priority = weight + max successor priority.
func TestPriorities(t *testing.T) {
	l := paperdag.Figure1()
	g := deps.Build(l.Block, deps.BuildOptions{})
	res := schedule(g, traditional(5))
	byName := map[string]float64{}
	for i, in := range l.Block.Instrs {
		byName[l.Name(in)] = res.Priorities[i]
	}
	wants := map[string]float64{"X4": 1, "L1": 6, "L0": 11, "X0": 1, "X3": 1}
	for n, want := range wants {
		if byName[n] != want {
			t.Errorf("priority(%s) = %g, want %g", n, byName[n], want)
		}
	}
}

// TestScheduleRespectsDependences: property check on every paper DAG and
// weighting — each instruction appears exactly once and never before a
// DAG predecessor.
func TestScheduleRespectsDependences(t *testing.T) {
	weighters := map[string]weighting{
		"trad1":    traditional(1),
		"trad5":    traditional(5),
		"balanced": balanced(core.Options{}),
		"average":  registered(PolicyAverage),
	}
	for _, l := range []*paperdag.Labeled{paperdag.Figure1(), paperdag.Figure4(), paperdag.Figure7()} {
		g := deps.Build(l.Block, deps.BuildOptions{})
		for wn, w := range weighters {
			res := schedule(g, w)
			pos := make(map[int]int)
			for k, node := range res.Perm {
				if _, dup := pos[node]; dup {
					t.Fatalf("%s/%s: node %d scheduled twice", l.Block.Label, wn, node)
				}
				pos[node] = k
			}
			if len(pos) != g.N() {
				t.Fatalf("%s/%s: scheduled %d of %d", l.Block.Label, wn, len(pos), g.N())
			}
			for i := 0; i < g.N(); i++ {
				for _, e := range g.Succs[i] {
					if pos[e.To] <= pos[i] {
						t.Errorf("%s/%s: edge %d->%d violated (%d before %d)",
							l.Block.Label, wn, i, e.To, pos[e.To], pos[i])
					}
				}
			}
		}
	}
}

// TestFractionalLatency: a traditional weight of 2.6 forces a gap of 3
// whole slots between a load and its consumer when fillers exist.
func TestFractionalLatency(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = load a[0]
		v1 = const 1
		v2 = const 2
		v3 = const 3
		v4 = addi v0, 1
	`)
	g := deps.Build(b, deps.BuildOptions{})
	res := schedule(g, traditional(2.6))
	// The consumer of the load must sit at least ceil(2.6)=3 slots after
	// it (the load issues first, at slot 0).
	for k, in := range res.Order {
		if in.Dst == ir.Virt(4) && k < 3 {
			t.Errorf("consumer at slot %d, want >= 3", k)
		}
	}
	if res.VNops != 0 {
		t.Errorf("unexpected starvation: %d vnops", res.VNops)
	}
}

// TestTerminatorStaysLast: control edges pin the branch at the end under
// every weighting.
func TestTerminatorStaysLast(t *testing.T) {
	b := ir.MustParseBlock(`
		block loop freq=1
		v0 = load a[0]
		v1 = addi v0, -1
		v2 = const 7
		br v1, loop
		end
	`)
	g := deps.Build(b, deps.BuildOptions{})
	for _, w := range []weighting{traditional(1), traditional(10), balanced(core.Options{})} {
		res := schedule(g, w)
		if last := res.Order[len(res.Order)-1]; last.Op != ir.OpBr {
			t.Errorf("terminator not last: %v", last)
		}
	}
}

// TestEmptySchedule: a zero-instruction block schedules to nothing.
func TestEmptySchedule(t *testing.T) {
	g := deps.Build(&ir.Block{Label: "e"}, deps.BuildOptions{})
	res := schedule(g, traditional(2))
	if len(res.Order) != 0 || res.VNops != 0 {
		t.Errorf("unexpected result: %+v", res)
	}
}
