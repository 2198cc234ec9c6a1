package sched_test

import (
	"context"
	"testing"

	"bsched/internal/compile"
	"bsched/internal/ir"
	"bsched/internal/sched"
)

// TestScheduleBlockPreservesMetadata: a scheduling pass reorders the
// block's instructions and keeps its label, freq and liveout.
func TestScheduleBlockPreservesMetadata(t *testing.T) {
	b := ir.MustParseBlock(`
		block k freq=42
		liveout v0
		v0 = load a[0]
		end
	`)
	res, err := compile.RunBlock(context.Background(), b, compile.Options{Policy: sched.PolicyTraditional, SkipRegalloc: true})
	if err != nil {
		t.Fatal(err)
	}
	if nb := res.Block; nb.Label != "k" || nb.Freq != 42 || len(nb.LiveOut) != 1 {
		t.Errorf("metadata lost: %+v", nb)
	}
}
