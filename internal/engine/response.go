package engine

import (
	"fmt"

	"bsched/internal/compile"
)

// BlockSummary is the per-block statistics slice of a BlockResponse
// (and, assembled in program order, of the HTTP frontend's program
// response).
type BlockSummary struct {
	Label string `json:"label"`
	// Instrs counts the final scheduled instructions (spill code
	// included).
	Instrs int `json:"instrs"`
	// VNops1 is the number of starvation no-op slots in the pass-1
	// schedule, the paper's latency-boundness diagnostic.
	VNops1 int `json:"vnops_pass1"`
	// Spill totals.
	SpillLoads  int `json:"spill_loads"`
	SpillStores int `json:"spill_stores"`
	MaxPressure int `json:"max_pressure"`
	// WorkUsed is the budget charge across all rungs.
	WorkUsed int64 `json:"work_used"`
	Degraded bool  `json:"degraded,omitempty"`
	// Policy names the scheduling policy the block was compiled under
	// ("balanced", "critical-path", …; docs/POLICIES.md). For an "auto"
	// request this is the decision rule's per-block pick.
	Policy string `json:"policy,omitempty"`
}

// BlockResponse is the engine's unit of caching, single-flight, disk
// persistence and peer exchange: one block's compiled schedule under one
// options fingerprint. The HTTP frontend assembles program responses
// from these at the edge; the peer protocol carries them between nodes
// unmodified. All fields are immutable once the entry completes.
type BlockResponse struct {
	// Block is the fully scheduled block, rendered in the same textual
	// IR the request used (ir.Block.String() of the result block).
	Block string `json:"block"`
	// Summary carries the block's scheduling statistics.
	Summary BlockSummary `json:"summary"`
	// Degradations lists every ladder downgrade in this block.
	Degradations []compile.Event `json:"degradations,omitempty"`
	// Fingerprint and OptionsFingerprint echo the cache key (hex): the
	// *source* block's content fingerprint and the options fingerprint.
	Fingerprint        string `json:"fingerprint"`
	OptionsFingerprint string `json:"options_fingerprint"`
}

// buildBlockResponse renders one hardened block result as the shared
// (cacheable) block response.
func buildBlockResponse(br *compile.BlockResult, key Key) *BlockResponse {
	out := &BlockResponse{
		Block:              br.Block.String(),
		Degradations:       br.Degradations,
		Fingerprint:        fmt.Sprintf("%016x", key.Block),
		OptionsFingerprint: fmt.Sprintf("%016x", key.Opts),
	}
	out.Summary = BlockSummary{
		Label:       br.Block.Label,
		Instrs:      len(br.Block.Instrs),
		SpillLoads:  br.Spill.SpillLoads,
		SpillStores: br.Spill.SpillStores,
		MaxPressure: br.Spill.MaxPressure,
		WorkUsed:    br.WorkUsed,
		Degraded:    br.Degraded(),
		Policy:      br.Policy,
	}
	if br.Pass1 != nil {
		out.Summary.VNops1 = br.Pass1.VNops
	}
	return out
}

// Matches reports whether the response's embedded fingerprints agree
// with key — the offer handler's cheap integrity check that a peer's
// payload really is the compilation the URL claims it is.
func (r *BlockResponse) Matches(key Key) bool {
	return r.Fingerprint == fmt.Sprintf("%016x", key.Block) &&
		r.OptionsFingerprint == fmt.Sprintf("%016x", key.Opts)
}

// cacheable reports whether the response may be served for its key to
// any request: none of its downgrades was forced by the wall clock
// (context deadline or shutdown) rather than the work-budget tier.
// Tier-driven downgrades are deterministic and cacheable — the tier is
// part of the cache key; wall-clock ones are not, since the deadline is
// not.
func (r *BlockResponse) cacheable() bool {
	for _, e := range r.Degradations {
		if e.Deadline {
			return false
		}
	}
	return true
}
