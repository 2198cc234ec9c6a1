package experiments

import (
	"fmt"
	"strings"

	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/machine"
	"bsched/internal/memlat"
	"bsched/internal/regalloc"
	"bsched/internal/sim"
)

// ablationSystems are the two memory systems the ablations probe: one
// moderate-uncertainty cache and one high-uncertainty network.
func ablationSystems() []memlat.System {
	return []memlat.System{
		{Model: memlat.Cache{HitRate: 0.80, HitLat: 2, MissLat: 10}, OptLats: []float64{2}},
		{Model: memlat.NewNormal(3, 5), OptLats: []float64{3}},
	}
}

// derive copies the runner's configuration with a fresh compile cache and
// degradation list, applying fn to adjust it. The copy forwards every
// degradation it records to r.
func derive(r *Runner, fn func(*Runner)) *Runner {
	nr := *r
	nr.Degradations = nil
	nr.compiled = nil
	nr.parent = r
	if fn != nil {
		fn(&nr)
	}
	return &nr
}

// AblationAverageLLP (A1) reproduces the paper's §3 negative result: a
// uniform average-LLP weight schedules no better than the traditional
// scheduler, while true balanced weights do. Returns the mean improvement
// over the traditional scheduler for both variants, per system.
func AblationAverageLLP(r *Runner, progs map[string]*ir.Program, names []string) string {
	t := newTable("Ablation A1: per-load balanced weights vs. uniform average-LLP weights\n(mean % improvement over the traditional scheduler, UNLIMITED)",
		"System", "OptLat", "Average-LLP", "Balanced")
	for _, sys := range ablationSystems() {
		opt := sys.OptLats[0]
		sumAvg, sumBal := 0.0, 0.0
		for _, n := range names {
			rr := derive(r, nil)
			trad := TraditionalSched(opt)
			avg := rr.CompareKinds(progs[n], trad, rr.AverageSched(), machine.UNLIMITED(), sys.Model)
			bal := rr.CompareKinds(progs[n], trad, rr.BalancedSched(), machine.UNLIMITED(), sys.Model)
			sumAvg += avg.Imp.Mean
			sumBal += bal.Imp.Mean
		}
		t.add(sys.Model.Name(), fmt.Sprintf("%g", opt),
			pct(sumAvg/float64(len(names))), pct(sumBal/float64(len(names))))
	}
	return t.String()
}

// AblationChances (A2) compares the exact DP Chances computation with the
// paper's union-find level approximation.
func AblationChances(r *Runner, progs map[string]*ir.Program, names []string) string {
	t := newTable("Ablation A2: exact DP Chances vs. union-find level approximation\n(mean % improvement over the traditional scheduler, UNLIMITED)",
		"System", "OptLat", "UnionFind", "ExactDP")
	for _, sys := range ablationSystems() {
		opt := sys.OptLats[0]
		sumUF, sumDP := 0.0, 0.0
		for _, n := range names {
			dp := derive(r, nil)
			uf := derive(r, func(nr *Runner) { nr.BalancedOpts.Chances = core.ChancesUnionFind })
			trad := TraditionalSched(opt)
			cUF := uf.CompareKinds(progs[n], trad, uf.BalancedSched(), machine.UNLIMITED(), sys.Model)
			cDP := dp.CompareKinds(progs[n], trad, dp.BalancedSched(), machine.UNLIMITED(), sys.Model)
			sumUF += cUF.Imp.Mean
			sumDP += cDP.Imp.Mean
		}
		t.add(sys.Model.Name(), fmt.Sprintf("%g", opt),
			pct(sumUF/float64(len(names))), pct(sumDP/float64(len(names))))
	}
	return t.String()
}

// AblationSpillPool (A3) varies the FIFO spill-register pool size: the
// paper enlarged GCC's pool by two to let spill code schedule with other
// instructions.
func AblationSpillPool(r *Runner, progs map[string]*ir.Program, names []string) string {
	sys := memlat.Cache{HitRate: 0.80, HitLat: 2, MissLat: 10}
	const opt = 2.0
	t := newTable("Ablation A3: FIFO spill pool size (L80(2,10), UNLIMITED)",
		"Pool", "Balanced spill%", "Traditional spill%", "Mean Imp%")
	for _, pool := range []int{3, 4, 6, 8} {
		rr := derive(r, func(nr *Runner) {
			nr.Regalloc = regalloc.Config{Regs: 32, SpillPool: pool}
		})
		sumImp, sumBalSpill, sumTradSpill := 0.0, 0.0, 0.0
		for _, n := range names {
			c := rr.Compare(progs[n], opt, machine.UNLIMITED(), sys)
			sumImp += c.Imp.Mean
			sumBalSpill += c.Bal.SpillPct
			sumTradSpill += c.Trad.SpillPct
		}
		k := float64(len(names))
		t.add(fmt.Sprintf("%d", pool), pct(sumBalSpill/k), pct(sumTradSpill/k), pct(sumImp/k))
	}
	return t.String()
}

// ExtensionFPBalance (A4) exercises the §6 extension: when floating-point
// operations have multi-cycle latencies (asynchronous FP units), balancing
// them alongside loads can hide their latency too.
func ExtensionFPBalance(r *Runner, progs map[string]*ir.Program, names []string) string {
	fpLat := func(op ir.Op) int {
		switch op {
		case ir.OpFMul:
			return 3
		case ir.OpFDiv:
			return 8
		case ir.OpFAdd, ir.OpFSub, ir.OpFNeg, ir.OpFMA:
			return 2
		default:
			return 1
		}
	}
	sys := memlat.NewNormal(3, 2)
	const opt = 3.0
	t := newTable("Extension A4: balancing multi-cycle FP ops (N(3,2), UNLIMITED, fadd=2 fmul=3 fdiv=8)",
		"Program", "Loads-only Imp%", "Loads+FP Imp%")
	base := derive(r, func(nr *Runner) {
		nr.SimOpts = sim.Options{OpLatency: fpLat}
	})
	ext := derive(r, func(nr *Runner) {
		nr.SimOpts = sim.Options{OpLatency: fpLat}
		nr.BalancedOpts = core.Options{Balanced: func(op ir.Op) bool { return op.IsLoad() || op.IsFP() }}
	})
	for _, n := range names {
		trad := TraditionalSched(opt)
		cBase := base.CompareKinds(progs[n], trad, base.BalancedSched(), machine.UNLIMITED(), sys)
		cExt := ext.CompareKinds(progs[n], trad, ext.BalancedSched(), machine.UNLIMITED(), sys)
		t.add(n, pct(cBase.Imp.Mean), pct(cExt.Imp.Mean))
	}
	return t.String()
}

// AblationAlias (A5) compares the §4.2 Fortran-disjoint alias oracle with
// the conservative raw-f2c one: conservative memory dependences chain
// loads behind stores and shrink the exploitable load level parallelism.
func AblationAlias(r *Runner, progs map[string]*ir.Program, names []string) string {
	sys := memlat.NewNormal(3, 5)
	const opt = 3.0
	t := newTable("Ablation A5: alias oracle (N(3,5), UNLIMITED)",
		"Program", "Disjoint Imp%", "Conservative Imp%")
	cons := derive(r, func(nr *Runner) { nr.Alias = deps.AliasConservative })
	disj := derive(r, nil)
	for _, n := range names {
		cd := disj.Compare(progs[n], opt, machine.UNLIMITED(), sys)
		cc := cons.Compare(progs[n], opt, machine.UNLIMITED(), sys)
		t.add(n, pct(cd.Imp.Mean), pct(cc.Imp.Mean))
	}
	return t.String()
}

// FormatAblations runs every ablation and concatenates the reports.
func FormatAblations(r *Runner, progs map[string]*ir.Program, names []string) string {
	var b strings.Builder
	b.WriteString(AblationAverageLLP(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(AblationChances(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(AblationSpillPool(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(ExtensionFPBalance(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(AblationAlias(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(AblationReuseOrder(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(AblationHeuristics(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(ExtensionSuperscalar(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(ExtensionEnlarge(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(ExtensionUnroll(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(AblationAllocator(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(ExtensionBursty(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(AblationRegisters(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(AblationPass2(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(ExtensionKnownLatency(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(HistoricalOOO(r, progs, names))
	b.WriteByte('\n')
	b.WriteString(CrossWorkload(r))
	return b.String()
}
