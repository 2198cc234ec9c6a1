package compile

import (
	"fmt"

	"bsched/internal/deps"
	"bsched/internal/ir"
	"bsched/internal/pipeline"
	"bsched/internal/regalloc"
	"bsched/internal/sched"
)

// refCompileBlock is the second compile driver this package replaced,
// kept as the reference TestFrontDoorMatchesPipeline compares against:
// the two scheduling passes around register allocation, unbudgeted, with
// no degradation ladder, stage spans or panic boundary. weigh supplies
// both passes' weights; of opts it reads Alias, Regalloc, SkipRegalloc,
// Heuristics, Allocator and SkipPass2.
func refCompileBlock(b *ir.Block, weigh func(*deps.Graph) []float64, opts Options) (*pipeline.BlockResult, error) {
	work := b.Clone()
	ir.Renumber(work)
	buildOpts := deps.BuildOptions{Alias: opts.Alias}

	scheduled, pass1 := refScheduleBlock(work, buildOpts, weigh, opts.Heuristics)
	res := &pipeline.BlockResult{Pass1: pass1}
	if opts.SkipRegalloc {
		res.Block = scheduled
		return res, nil
	}

	ir.Renumber(scheduled)
	alloc := regalloc.Run
	if opts.Allocator == pipeline.AllocColoring {
		alloc = regalloc.RunColoring
	}
	cfg := opts.Regalloc
	if cfg == (regalloc.Config{}) {
		cfg = regalloc.DefaultConfig()
	}
	spill, err := alloc(scheduled, cfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: block %s: %w", b.Label, err)
	}
	res.Spill = spill

	if opts.SkipPass2 {
		res.Block = scheduled
		return res, nil
	}
	res.Block, res.Pass2 = refScheduleBlock(scheduled, buildOpts, weigh, opts.Heuristics)
	return res, nil
}

// refScheduleBlock builds the DAG for b, schedules it and returns a new
// block (sharing instruction pointers) in scheduled order, along with
// the scheduling result.
func refScheduleBlock(b *ir.Block, opts deps.BuildOptions, weigh func(*deps.Graph) []float64, h sched.Heuristics) (*ir.Block, *sched.Result) {
	g := deps.Build(b, opts)
	res, err := sched.Schedule(g, weigh(g), h, nil)
	if err != nil {
		panic("unbudgeted schedule failed: " + err.Error())
	}
	return &ir.Block{Label: b.Label, Freq: b.Freq, Instrs: res.Order, LiveOut: b.LiveOut}, res
}
