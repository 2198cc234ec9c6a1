package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/machine"
	"bsched/internal/memlat"
	"bsched/internal/paperdag"
	"bsched/internal/sched"
	"bsched/internal/sim"
)

// schedule list-schedules a paper DAG under the given weights, with every
// tie-break heuristic and no work budget.
func schedule(g *deps.Graph, weights []float64) *sched.Result {
	res, _ := sched.Schedule(g, weights, sched.Heuristics{}, nil) // a nil budget never trips
	return res
}

// Figure2 regenerates the three schedules of Figure 2 from the Figure 1
// code DAG: traditional with W=5 (greedy), traditional with W=1 (lazy)
// and balanced (W=3).
func Figure2() string {
	l := paperdag.Figure1()
	g := deps.Build(l.Block, deps.BuildOptions{})
	columns := []struct {
		title string
		w     []float64
	}{
		{"Traditional W=5", sched.TraditionalWeights(g, 5)},
		{"Traditional W=1", sched.TraditionalWeights(g, 1)},
		{"Balanced", core.Weights(g, core.Options{})},
	}
	t := newTable("Figure 2: schedules generated from the Figure 1 code DAG",
		columns[0].title, columns[1].title, columns[2].title)
	var seqs [][]string
	for _, c := range columns {
		seqs = append(seqs, l.Sequence(schedule(g, c.w).Order))
	}
	for k := range seqs[0] {
		t.add(seqs[0][k], seqs[1][k], seqs[2][k])
	}
	return t.String()
}

// Figure3Row is one actual-latency row of the Figure 3 interlock chart.
type Figure3Row struct {
	Latency    int
	Interlocks map[string]int // schedule name -> interlock cycles
}

// Figure3 regenerates Figure 3: hardware interlocks incurred by the
// greedy (W=5), lazy (W=1) and balanced schedules of the Figure 1 DAG as
// the actual memory latency varies.
func Figure3(maxLatency int) []Figure3Row {
	l := paperdag.Figure1()
	g := deps.Build(l.Block, deps.BuildOptions{})
	byName := map[string]*sched.Result{
		"greedy":   schedule(g, sched.TraditionalWeights(g, 5)),
		"lazy":     schedule(g, sched.TraditionalWeights(g, 1)),
		"balanced": schedule(g, core.Weights(g, core.Options{})),
	}
	rng := rand.New(rand.NewSource(1))
	var rows []Figure3Row
	for lat := 1; lat <= maxLatency; lat++ {
		row := Figure3Row{Latency: lat, Interlocks: make(map[string]int)}
		for name, res := range byName {
			st := sim.RunBlock(res.Order, machine.UNLIMITED(), memlat.Fixed{Latency: lat}, rng, sim.Options{})
			row.Interlocks[name] = st.Interlocks
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatFigure3 renders the interlock table behind the Figure 3 chart.
func FormatFigure3(rows []Figure3Row) string {
	t := newTable("Figure 3: interlocks vs. actual load latency (Figure 1 DAG)",
		"Latency", "greedy (W=5)", "lazy (W=1)", "balanced")
	for _, r := range rows {
		t.add(fmt.Sprintf("%d", r.Latency),
			fmt.Sprintf("%d", r.Interlocks["greedy"]),
			fmt.Sprintf("%d", r.Interlocks["lazy"]),
			fmt.Sprintf("%d", r.Interlocks["balanced"]))
	}
	return t.String()
}

// Figure5 regenerates the balanced schedule of the Figure 4 DAG (both
// loads weight 6).
func Figure5() string {
	l := paperdag.Figure4()
	g := deps.Build(l.Block, deps.BuildOptions{})
	res := schedule(g, core.Weights(g, core.Options{}))
	var b strings.Builder
	b.WriteString("Figure 5: balanced schedule of the Figure 4 code DAG\n")
	for i, in := range res.Order {
		fmt.Fprintf(&b, "  %d: %s (weight %g)\n", i, l.Name(in), res.Weights[res.Perm[i]])
	}
	return b.String()
}

// Table1 regenerates the weight-contribution matrix of Table 1 on the
// reconstructed Figure 7 DAG (the original figure is not part of the
// provided paper text; paperdag.Figure7 documents the reconstruction).
func Table1() string {
	l := paperdag.Figure7()
	g := deps.Build(l.Block, deps.BuildOptions{})
	weights, contrib := core.Contributions(g, core.Options{})

	names := make([]string, g.N())
	for i, in := range l.Block.Instrs {
		names[i] = l.Name(in)
	}
	header := append([]string{"Load"}, names...)
	header = append(header, "Weight")
	t := newTable("Table 1 (reconstructed DAG): weight contribution of each instruction to each load", header...)
	for i := 0; i < g.N(); i++ {
		if !g.IsLoad(i) {
			continue
		}
		cells := []string{names[i]}
		for j := 0; j < g.N(); j++ {
			cells = append(cells, frac(contrib[i][j]))
		}
		cells = append(cells, fmt.Sprintf("%.3f", weights[i]))
		t.add(cells...)
	}
	return t.String()
}

// frac renders small rationals the way the paper does (0, 1, 1/3, …).
func frac(v float64) string {
	if v == 0 {
		return "0"
	}
	for den := 1; den <= 12; den++ {
		num := v * float64(den)
		if diff := num - float64(int(num+0.5)); diff < 1e-9 && diff > -1e-9 {
			n := int(num + 0.5)
			if den == 1 {
				return fmt.Sprintf("%d", n)
			}
			return fmt.Sprintf("%d/%d", n, den)
		}
	}
	return fmt.Sprintf("%.3f", v)
}
