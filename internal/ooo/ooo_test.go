package ooo

import (
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

func rng() *rand.Rand { return rand.New(rand.NewSource(9)) }

// TestWindow1MatchesInOrder: with a one-entry window the core degenerates
// to the paper's in-order non-blocking pipeline.
func TestWindow1MatchesInOrder(t *testing.T) {
	blocks := []*ir.Block{
		paperdag.Figure1().Block,
		paperdag.Figure4().Block,
		ir.MustParseBlock(`
			v0 = load a[0]
			v1 = load a[8]
			v2 = add v0, v1
			v3 = const 4
			store out[0], v2
		`),
	}
	for _, blk := range blocks {
		for lat := 1; lat <= 6; lat++ {
			mem := memlat.Fixed{Latency: lat}
			inorder := sim.RunBlock(blk.Instrs, machine.UNLIMITED(), mem, rng(), sim.Options{})
			o := Run(blk.Instrs, Config{Window: 1}, mem, rng())
			if o.Cycles != inorder.Cycles {
				t.Errorf("%s @%d: ooo(W=1) %d cycles, in-order %d",
					blk.Label, lat, o.Cycles, inorder.Cycles)
			}
		}
	}
}

// TestWideWindowReachesDataflowBound: with the window covering the whole
// block, runtime approaches the dataflow critical path regardless of the
// schedule.
func TestWideWindowReachesDataflowBound(t *testing.T) {
	l := paperdag.Figure1()
	g := deps.Build(l.Block, deps.BuildOptions{})
	mem := memlat.Fixed{Latency: 4}
	// Critical path: L0(4) -> L1(4) -> X4(1) = 9 cycles; issue width 1
	// forces at least 7 issue cycles. Expected runtime 9-10.
	for _, w := range [][]float64{sched.TraditionalWeights(g, 1), sched.TraditionalWeights(g, 5), core.Weights(g, core.Options{})} {
		res, _ := sched.Schedule(g, w, sched.Heuristics{}, nil)
		o := Run(res.Order, Config{Window: 64}, mem, rng())
		if o.Cycles > 10 {
			t.Errorf("wide-window runtime %d exceeds dataflow bound", o.Cycles)
		}
	}
}

// TestSchedulesConvergeUnderWideWindow: the historical point — on a
// wide-issue core with a big window, the greedy, lazy and balanced
// schedules all run in the same time; with W=1 they differ (Figure 3).
// (A single-issue out-of-order core still contends for its one issue
// slot in window order, so width matters too.)
func TestSchedulesConvergeUnderWideWindow(t *testing.T) {
	l := paperdag.Figure1()
	g := deps.Build(l.Block, deps.BuildOptions{})
	mem := memlat.Fixed{Latency: 3}
	cycles := func(cfg Config, w []float64) int {
		res, _ := sched.Schedule(g, w, sched.Heuristics{}, nil)
		return Run(res.Order, cfg, mem, rng()).Cycles
	}
	weighters := [][]float64{sched.TraditionalWeights(g, 1), sched.TraditionalWeights(g, 5), core.Weights(g, core.Options{})}
	// W=1: balanced strictly beats both (Figure 3 at latency 3).
	narrow := Config{Window: 1}
	if !(cycles(narrow, weighters[2]) < cycles(narrow, weighters[0]) &&
		cycles(narrow, weighters[2]) < cycles(narrow, weighters[1])) {
		t.Errorf("W=1 did not preserve the Figure 3 ordering")
	}
	// Window 16, width 4: all equal at the dataflow bound.
	wide := Config{Window: 16, Width: 4}
	base := cycles(wide, weighters[0])
	for _, w := range weighters[1:] {
		if c := cycles(wide, w); c != base {
			t.Errorf("wide window: schedules differ (%d vs %d)", c, base)
		}
	}
	if base != 7 { // L0@0 -> L1@3 -> X4@6, +1
		t.Errorf("wide-issue runtime %d, want the dataflow bound 7", base)
	}
}

// TestRenamingIgnoresFalseDeps: reusing a register creates anti/output
// dependences that the renamed core must ignore.
func TestRenamingIgnoresFalseDeps(t *testing.T) {
	b := ir.MustParseBlock(`
		r1 = load a[0]
		r2 = addi r1, 1
		r1 = load a[8]
		r3 = addi r1, 1
	`)
	mem := memlat.Fixed{Latency: 6}
	// In order: load@0, add@6, load@7, add@13 -> 14 cycles.
	inorder := sim.RunBlock(b.Instrs, machine.UNLIMITED(), mem, rng(), sim.Options{})
	if inorder.Cycles != 14 {
		t.Fatalf("in-order cycles = %d, want 14", inorder.Cycles)
	}
	// Renamed, window 4: both loads issue back to back; runtime ~8.
	o := Run(b.Instrs, Config{Window: 4}, mem, rng())
	if o.Cycles > 9 {
		t.Errorf("renamed core did not overlap the loads: %d cycles", o.Cycles)
	}
}

// TestWidthScaling: independent instructions exploit issue width.
func TestWidthScaling(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = const 1
		v1 = const 2
		v2 = const 3
		v3 = const 4
	`)
	mem := memlat.Fixed{Latency: 1}
	if o := Run(b.Instrs, Config{Window: 8, Width: 4}, mem, rng()); o.Cycles != 1 {
		t.Errorf("width-4: %d cycles, want 1", o.Cycles)
	}
	if o := Run(b.Instrs, Config{Window: 8}, mem, rng()); o.Cycles != 4 {
		t.Errorf("width-1: %d cycles, want 4", o.Cycles)
	}
}

// TestTrialsLength and determinism.
func TestTrials(t *testing.T) {
	l := paperdag.Figure1()
	mem := memlat.NewNormal(3, 2)
	a := Trials(l.Block.Instrs, Config{Window: 8}, mem, rand.New(rand.NewSource(3)), 20)
	b := Trials(l.Block.Instrs, Config{Window: 8}, mem, rand.New(rand.NewSource(3)), 20)
	if len(a) != 20 {
		t.Fatalf("got %d trials", len(a))
	}
	if stats.Mean(a) != stats.Mean(b) {
		t.Errorf("trials not deterministic")
	}
}

func TestBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Window 0 accepted")
		}
	}()
	Run(nil, Config{Window: 0}, memlat.Fixed{Latency: 1}, rng())
}
