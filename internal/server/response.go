package server

import (
	"fmt"
	"strings"
	"time"

	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/ir"
)

// CompileResponse is the body of a successful POST /v1/compile — the
// program-level view assembled at the edge from per-block engine
// results. Its JSON shape is pinned: block-granular caching is an
// internal re-plumbing, and a standalone client must see byte-identical
// responses (modulo the cached/coalesced/service_ms stamps) across that
// change.
type CompileResponse struct {
	// Program is the scheduled program, rendered in the same textual IR
	// the request carried: the per-block schedules in program order,
	// wrapped in their func (and optional "# program") headers.
	Program string `json:"program"`
	// Blocks are the per-block schedule summaries, in program order.
	Blocks []engine.BlockSummary `json:"blocks"`
	// Degradations are the ladder downgrade events across all blocks,
	// concatenated in program order.
	Degradations []compile.Event `json:"degradations,omitempty"`
	// Fingerprint and OptionsFingerprint echo the request's program
	// fingerprint and normalized options fingerprint. The cache itself
	// is keyed per block (docs/CACHE-KEYS.md); the program fingerprint
	// is an echo for client-side correlation, not a cache key.
	Fingerprint        string `json:"fingerprint"`
	OptionsFingerprint string `json:"options_fingerprint"`
	// Cached is true when no block of this response required a new
	// compilation (every block came from memory, disk, a peer, or an
	// in-flight leader); Coalesced marks that at least one block waited
	// on another request's in-flight compilation.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
	// ServiceMillis is this request's service time.
	ServiceMillis float64 `json:"service_ms"`
}

// Stamped returns a copy carrying the per-request fields: the cache
// disposition, from the worst block's source, and service time.
func (r *CompileResponse) Stamped(source engine.Source, service time.Duration) *CompileResponse {
	c := *r
	c.Cached = source != engine.SourceMiss
	c.Coalesced = source == engine.SourceCoalesced
	c.ServiceMillis = float64(service.Microseconds()) / 1000
	return &c
}

// assembleResponse builds the program-level response from per-block
// results, in program order. The rendering mirrors ir.Program.String()
// exactly — optional program header, one "func" header per function, a
// blank line between functions — with each block's text taken from its
// cached per-block response, so an assembled program is byte-identical
// to what a whole-program compile.Run would have rendered. progFP is
// the program fingerprint the handler already rendered.
func assembleResponse(prog *ir.Program, progFP string, results []*engine.BlockResponse, optsFP uint64) *CompileResponse {
	resp := &CompileResponse{
		// Allocated even for a program without blocks, which answers
		// "blocks":[] rather than null.
		Blocks:             make([]engine.BlockSummary, 0, len(results)),
		Fingerprint:        progFP,
		OptionsFingerprint: fmt.Sprintf("%016x", optsFP),
	}
	var sb strings.Builder
	size := len("# program \n") + len(prog.Name)
	for _, f := range prog.Funcs {
		size += len("\nfunc \n") + len(f.Name)
	}
	for _, br := range results {
		size += len(br.Block)
	}
	sb.Grow(size)
	if prog.Name != "" {
		sb.WriteString("# program ")
		sb.WriteString(prog.Name)
		sb.WriteByte('\n')
	}
	i := 0
	for fi, f := range prog.Funcs {
		if fi > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString("func ")
		sb.WriteString(f.Name)
		sb.WriteByte('\n')
		for range f.Blocks {
			br := results[i]
			sb.WriteString(br.Block)
			resp.Blocks = append(resp.Blocks, br.Summary)
			resp.Degradations = append(resp.Degradations, br.Degradations...)
			i++
		}
	}
	resp.Program = sb.String()
	return resp
}
