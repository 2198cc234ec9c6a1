package sim

import (
	"math/rand"
	"strings"
	"testing"

	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/machine"
	"bsched/internal/memlat"
	"bsched/internal/paperdag"
	"bsched/internal/sched"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func fig1Schedules(t *testing.T) map[string][]*ir.Instr {
	t.Helper()
	out := make(map[string][]*ir.Instr)
	l := paperdag.Figure1()
	g := deps.Build(l.Block, deps.BuildOptions{})
	for name, w := range map[string][]float64{
		"greedy":   sched.TraditionalWeights(g, 5),
		"lazy":     sched.TraditionalWeights(g, 1),
		"balanced": core.Weights(g, core.Options{}),
	} {
		res, _ := sched.Schedule(g, w, sched.Heuristics{}, nil)
		out[name] = res.Order
	}
	return out
}

// TestFigure3Interlocks pins the interlock counts of Figure 3: executing
// the greedy (W=5), lazy (W=1) and balanced schedules of the Figure 1 DAG
// at fixed actual latencies 1–5. Balanced wins strictly inside 2–4 and
// ties at the extremes.
func TestFigure3Interlocks(t *testing.T) {
	want := map[string][5]int{ // latency 1..5
		"greedy":   {0, 1, 2, 3, 4},
		"lazy":     {0, 1, 2, 3, 4},
		"balanced": {0, 0, 0, 2, 4},
	}
	schedules := fig1Schedules(t)
	for name, instrs := range schedules {
		for lat := 1; lat <= 5; lat++ {
			st := RunBlock(instrs, machine.UNLIMITED(), memlat.Fixed{Latency: lat}, rng(), Options{})
			if st.Interlocks != want[name][lat-1] {
				t.Errorf("%s @ latency %d: %d interlocks, want %d",
					name, lat, st.Interlocks, want[name][lat-1])
			}
			if st.Instrs != 7 {
				t.Errorf("%s: executed %d instrs, want 7", name, st.Instrs)
			}
		}
	}
}

// TestBalancedBeatsInside2to4 re-states Figure 3's headline as an
// inequality over total cycles.
func TestBalancedBeatsInside2to4(t *testing.T) {
	schedules := fig1Schedules(t)
	for lat := 2; lat <= 4; lat++ {
		m := memlat.Fixed{Latency: lat}
		bal := RunBlock(schedules["balanced"], machine.UNLIMITED(), m, rng(), Options{}).Cycles
		for _, other := range []string{"greedy", "lazy"} {
			o := RunBlock(schedules[other], machine.UNLIMITED(), m, rng(), Options{}).Cycles
			if bal >= o {
				t.Errorf("latency %d: balanced %d cycles !< %s %d", lat, bal, other, o)
			}
		}
	}
	for _, lat := range []int{1, 5} {
		m := memlat.Fixed{Latency: lat}
		bal := RunBlock(schedules["balanced"], machine.UNLIMITED(), m, rng(), Options{}).Cycles
		for _, other := range []string{"greedy", "lazy"} {
			o := RunBlock(schedules[other], machine.UNLIMITED(), m, rng(), Options{}).Cycles
			if bal != o {
				t.Errorf("latency %d: balanced %d cycles != %s %d", lat, bal, other, o)
			}
		}
	}
}

// TestInOrderSingleIssue: n independent 1-cycle instructions take n cycles.
func TestInOrderSingleIssue(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = const 1
		v1 = const 2
		v2 = const 3
	`)
	st := RunBlock(b.Instrs, machine.UNLIMITED(), memlat.Fixed{Latency: 9}, rng(), Options{})
	if st.Cycles != 3 || st.Interlocks != 0 {
		t.Errorf("got %+v, want 3 cycles, 0 interlocks", st)
	}
}

// TestOperandInterlock: a consumer immediately after a latency-4 load
// stalls 3 extra cycles.
func TestOperandInterlock(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = load a[0]
		v1 = addi v0, 1
	`)
	st := RunBlock(b.Instrs, machine.UNLIMITED(), memlat.Fixed{Latency: 4}, rng(), Options{})
	// load @0; v1 needs v0 at cycle 4 → 3 interlocks; cycles = 5.
	if st.Cycles != 5 || st.Interlocks != 3 {
		t.Errorf("got %+v, want 5 cycles / 3 interlocks", st)
	}
}

// TestMaxOutstanding: with MAX-2, a third back-to-back load waits for the
// first to complete.
func TestMaxOutstanding(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = load a[0]
		v1 = load a[8]
		v2 = load a[16]
	`)
	lat := memlat.Fixed{Latency: 10}
	unl := RunBlock(b.Instrs, machine.UNLIMITED(), lat, rng(), Options{})
	if unl.Cycles != 3 {
		t.Errorf("UNLIMITED: %d cycles, want 3", unl.Cycles)
	}
	max2 := RunBlock(b.Instrs, machine.MAX(2), lat, rng(), Options{})
	// loads @0, @1; third blocked until the first completes @10 → cycles 11.
	if max2.Cycles != 11 {
		t.Errorf("MAX-2: %d cycles, want 11", max2.Cycles)
	}
}

// TestMaxAge: with LEN-2, a latency-10 load blocks the processor from 2
// cycles after issue until its data returns; independent instructions
// cannot fill the window.
func TestMaxAge(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = load a[0]
		v1 = const 1
		v2 = const 2
		v3 = const 3
		v4 = const 4
	`)
	lat := memlat.Fixed{Latency: 10}
	unl := RunBlock(b.Instrs, machine.UNLIMITED(), lat, rng(), Options{})
	if unl.Cycles != 5 {
		t.Errorf("UNLIMITED: %d cycles, want 5", unl.Cycles)
	}
	len2 := RunBlock(b.Instrs, machine.LEN(2), lat, rng(), Options{})
	// load @0, consts @1, @2; then blocked until @10; consts @10, @11 →
	// cycles 12.
	if len2.Cycles != 12 {
		t.Errorf("LEN-2: %d cycles, want 12", len2.Cycles)
	}
}

// TestKnownLatencyOverride: a load marked !lat=2 ignores the memory model.
func TestKnownLatencyOverride(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = load a[0] !lat=2
		v1 = addi v0, 1
	`)
	st := RunBlock(b.Instrs, machine.UNLIMITED(), memlat.Fixed{Latency: 50}, rng(), Options{})
	if st.Cycles != 3 {
		t.Errorf("got %d cycles, want 3", st.Cycles)
	}
}

// TestOpLatencyExtension: the §6 FP extension gives fmul a longer latency.
func TestOpLatencyExtension(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = const 1
		v1 = fmul v0, v0
		v2 = fadd v1, v1
	`)
	opts := Options{OpLatency: func(op ir.Op) int {
		if op == ir.OpFMul {
			return 4
		}
		return 1
	}}
	st := RunBlock(b.Instrs, machine.UNLIMITED(), memlat.Fixed{Latency: 1}, rng(), Options{})
	if st.Cycles != 3 {
		t.Errorf("base: %d cycles, want 3", st.Cycles)
	}
	st = RunBlock(b.Instrs, machine.UNLIMITED(), memlat.Fixed{Latency: 1}, rng(), opts)
	// const @0, fmul @1, fadd needs v1 at 1+4=5 → cycles 6.
	if st.Cycles != 6 {
		t.Errorf("extended: %d cycles, want 6", st.Cycles)
	}
}

// TestSpillAccounting: IsSpill instructions are counted.
func TestSpillAccounting(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = load a[0]
		store $stack[8], v0 !spill
		v1 = load $stack[8] !spill
	`)
	st := RunBlock(b.Instrs, machine.UNLIMITED(), memlat.Fixed{Latency: 1}, rng(), Options{})
	if st.SpillInstrs != 2 {
		t.Errorf("SpillInstrs = %d, want 2", st.SpillInstrs)
	}
	if st.Loads != 2 {
		t.Errorf("Loads = %d, want 2", st.Loads)
	}
}

// TestTrialsDeterministic: the same seed reproduces the same runtimes.
func TestTrialsDeterministic(t *testing.T) {
	l := paperdag.Figure1()
	mem := memlat.NewNormal(3, 2)
	a := Trials(l.Block.Instrs, machine.UNLIMITED(), mem, rand.New(rand.NewSource(7)), Options{}, 30)
	b := Trials(l.Block.Instrs, machine.UNLIMITED(), mem, rand.New(rand.NewSource(7)), Options{}, 30)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d differs: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestVNopsIgnored: OpVNop instructions do not issue or cost cycles.
func TestVNopsIgnored(t *testing.T) {
	instrs := []*ir.Instr{
		{Op: ir.OpConst, Dst: ir.Virt(0), Imm: 1},
		{Op: ir.OpVNop},
		{Op: ir.OpVNop},
		{Op: ir.OpConst, Dst: ir.Virt(1), Imm: 2},
	}
	st := RunBlock(instrs, machine.UNLIMITED(), memlat.Fixed{Latency: 1}, rng(), Options{})
	if st.Cycles != 2 || st.Instrs != 2 {
		t.Errorf("got %+v, want 2 cycles / 2 instrs", st)
	}
}

// TestTimeline renders the ASCII timeline and checks its markers.
func TestTimeline(t *testing.T) {
	b := ir.MustParseBlock(`
		v0 = load a[0]
		v1 = const 1
		v2 = addi v0, 1
	`)
	out := Timeline(b.Instrs, machine.UNLIMITED(), memlat.Fixed{Latency: 4}, rng(), Options{}, 40)
	for _, want := range []string{"timeline:", "I===", "..I", "3 instrs"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

// TestVerify: invalid opcodes and undefined virtual uses are rejected,
// valid sequences and physical live-ins accepted.
func TestVerify(t *testing.T) {
	good := ir.MustParseBlock(`
		v0 = const 1
		v1 = addi v0, 1
		v2 = add v1, r3
	`)
	if err := Verify(good.Instrs); err != nil {
		t.Errorf("valid block rejected: %v", err)
	}
	bad := []*ir.Instr{{Op: ir.OpAdd, Dst: ir.Virt(0), Srcs: []ir.Reg{ir.Virt(5), ir.Virt(6)}}}
	if err := Verify(bad); err == nil {
		t.Errorf("undefined use accepted")
	}
	invalid := []*ir.Instr{{Op: ir.Op(200)}}
	if err := Verify(invalid); err == nil {
		t.Errorf("invalid opcode accepted")
	}
}
