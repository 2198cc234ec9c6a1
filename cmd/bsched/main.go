// Command bsched schedules textual IR with the balanced and traditional
// schedulers and shows the results side by side.
//
// Usage:
//
//	bsched [-lat L] [-alias disjoint|conservative] [-weights] [-dot]
//	       [-policy NAME] [-budget N] [-timeout D] [file.ir]
//
// Reads the program from the file (or stdin) and prints, per basic block,
// the computed balanced weights and both schedules. With -dot, the code
// DAG is printed in Graphviz syntax instead. -policy swaps the balanced
// column for another portfolio policy (balanced, traditional, average,
// balanced-dense, critical-path, or auto for the per-block decision
// rule — docs/POLICIES.md); the traditional column stays as the
// comparator.
//
// Compilation runs through the hardened front door
// (bsched/internal/compile): malformed input exits non-zero with a
// diagnostic instead of a stack trace, and blocks that exceed the -budget
// work cap or the -timeout deadline degrade down the ladder (policy
// weights → fixed-latency weights; list scheduling → source order) with
// each downgrade reported inline.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"bsched/internal/analytic"
	"bsched/internal/cli"
	"bsched/internal/compile"
	"bsched/internal/core"
	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/lineopt"
	"bsched/internal/memlat"
	"bsched/internal/sched"
	"bsched/internal/unroll"
)

func main() {
	lat := flag.Float64("lat", 2, "traditional scheduler's optimistic load latency")
	aliasMode := flag.String("alias", "disjoint", "alias oracle: disjoint or conservative")
	showWeights := flag.Bool("weights", true, "print balanced weights per instruction")
	dot := flag.Bool("dot", false, "print the code DAG in Graphviz dot syntax and exit")
	explain := flag.Int("explain", -1, "explain the balanced analysis for instruction N and exit")
	unrollBy := flag.Int("unroll", 1, "unroll canonical counted loops by this factor first")
	stages := flag.Bool("stages", false, "run the full pipeline (schedule, allocate, reschedule) and show each stage")
	memSpec := flag.String("mem", "L80(2,10)", "memory model for the analytic expected-stall comparison")
	showAnalytic := flag.Bool("analytic", true, "print the closed-form expected stalls of each schedule")
	lineOpt := flag.Bool("lineopt", false, "mark second accesses to a cache line as known hits first (§6)")
	policy := flag.String("policy", "", "schedule under this portfolio policy instead of balanced ("+strings.Join(sched.PolicyNames(), "|")+"|"+sched.PolicyAuto+")")
	budget := flag.Int64("budget", 0, "work budget per block in abstract units (0 default, negative unlimited)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound on compilation (0 none); past it blocks degrade, not abort")
	flag.Parse()

	if err := cli.CheckLatency(*lat); err != nil {
		fatal(err)
	}
	if *policy != "" && *policy != sched.PolicyAuto {
		if _, ok := sched.PolicyByName(*policy); !ok {
			fatal(fmt.Errorf("unknown -policy %q (want %s|%s)",
				*policy, strings.Join(sched.PolicyNames(), "|"), sched.PolicyAuto))
		}
	}
	src, err := cli.ReadInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := ir.Parse(src)
	if err != nil {
		fatal(fmt.Errorf("parse: %w", err))
	}

	alias, err := cli.ParseAlias(*aliasMode)
	if err != nil {
		fatal(err)
	}
	buildOpts := deps.BuildOptions{Alias: alias}
	copts := compile.Options{
		TradLatency: *lat,
		Alias:       alias,
		BlockBudget: *budget,
		Timeout:     *timeout,
	}
	ctx := context.Background()

	for _, blk := range prog.Blocks() {
		if *unrollBy > 1 {
			u, err := unroll.Unroll(blk, *unrollBy)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bsched: %v (scheduling as-is)\n", err)
			} else {
				blk = u
			}
		}
		if *lineOpt {
			if n := lineopt.MarkKnownHits(blk, lineopt.DefaultConfig()); n > 0 {
				fmt.Printf("(lineopt: %d loads marked as known cache hits)\n", n)
			}
		}
		if *dot {
			fmt.Print(deps.Build(blk, buildOpts).Dot())
			continue
		}
		if *explain >= 0 {
			g := deps.Build(blk, buildOpts)
			if *explain >= g.N() {
				fatal(fmt.Errorf("block %s has only %d instructions", blk.Label, g.N()))
			}
			ex := core.Explain(g, *explain, core.Options{})
			fmt.Print(ex.Format(func(i int) string {
				return fmt.Sprintf("#%d(%s)", i, blk.Instrs[i])
			}))
			continue
		}

		if *stages {
			scopts := copts
			scopts.Policy = *policy
			showStages(ctx, blk, scopts)
			continue
		}

		sopts := copts
		sopts.SkipRegalloc = true
		sopts.Policy = *policy
		bal, err := compile.RunBlock(ctx, blk, sopts)
		if err != nil {
			fatal(err)
		}
		sopts.Policy = sched.PolicyTraditional
		trad, err := compile.RunBlock(ctx, blk, sopts)
		if err != nil {
			fatal(err)
		}
		polName := bal.Policy

		fmt.Printf("== block %s (freq %g, %d instrs, %d loads)\n",
			blk.Label, blk.Freq, len(blk.Instrs), blk.NumLoads())
		reportDegradations(bal, trad)

		if *showWeights {
			if w := bal.Pass1.Weights; w != nil {
				fmt.Printf("%s weights:\n", polName)
				for i, in := range blk.Instrs {
					marker := " "
					if in.Op.IsLoad() {
						marker = "*"
					}
					fmt.Printf("  %s w=%-7.3f %s\n", marker, w[i], in)
				}
			} else {
				fmt.Printf("%s weights: unavailable (block fell back to source order)\n", polName)
			}
		}

		fmt.Printf("schedules (traditional lat=%g | %s):\n", *lat, polName)
		for i := range trad.Pass1.Order {
			fmt.Printf("  %2d: %-40s | %s\n", i, trad.Pass1.Order[i], bal.Pass1.Order[i])
		}
		fmt.Printf("starvation no-ops: traditional %d, %s %d\n", trad.Pass1.VNops, polName, bal.Pass1.VNops)
		if *showAnalytic {
			model, err := memlat.ParseModel(*memSpec)
			if err != nil {
				fatal(err)
			}
			if dist, ok := model.(memlat.Distribution); ok {
				et, err1 := analytic.EstimateRuntime(trad.Pass1.Order, dist)
				eb, err2 := analytic.EstimateRuntime(bal.Pass1.Order, dist)
				if err1 == nil && err2 == nil {
					fmt.Printf("expected stalls on %s (analytic): traditional %.2f, %s %.2f\n",
						dist.Name(), et.ExpectedStalls, polName, eb.ExpectedStalls)
				}
			}
		}
		fmt.Println()
	}
}

// reportDegradations prints every ladder downgrade the compilations took.
func reportDegradations(results ...*compile.BlockResult) {
	for _, res := range results {
		for _, e := range res.Degradations {
			fmt.Printf("degraded: %s\n", e)
		}
	}
}

// showStages runs the hardened pipeline on the block under copts.Policy
// (balanced when empty) and prints the outcome of each stage.
func showStages(ctx context.Context, blk *ir.Block, copts compile.Options) {
	res, err := compile.RunBlock(ctx, blk, copts)
	if err != nil {
		fatal(err)
	}
	reportDegradations(res)
	fmt.Printf("stage 0 — source (%d instrs):\n", len(blk.Instrs))
	for _, in := range blk.Instrs {
		fmt.Printf("    %s\n", in)
	}
	// Recompile a clone for display: the result's own pass-1 order shares
	// instruction pointers that allocation later rewrites.
	dopts := copts
	dopts.SkipRegalloc = true
	display, err := compile.RunBlock(ctx, blk, dopts)
	if err != nil {
		fatal(err)
	}
	pass1 := display.Pass1
	fmt.Printf("stage 1 — %s schedule (%d starvation no-ops):\n", display.Policy, pass1.VNops)
	for k, in := range pass1.Order {
		if pass1.Weights != nil {
			fmt.Printf("    %2d: %s  (w=%.2f)\n", k, in, pass1.Weights[pass1.Perm[k]])
		} else {
			fmt.Printf("    %2d: %s\n", k, in)
		}
	}
	fmt.Printf("stage 2 — register allocation: %d spill stores, %d spill loads, peak pressure %d\n",
		res.Spill.SpillStores, res.Spill.SpillLoads, res.Spill.MaxPressure)
	fmt.Printf("stage 3 — final schedule (%d instrs, %d work units):\n", len(res.Block.Instrs), res.WorkUsed)
	for k, in := range res.Block.Instrs {
		fmt.Printf("    %2d: %s\n", k, in)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bsched:", err)
	os.Exit(1)
}
