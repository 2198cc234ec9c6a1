package server

// POST /v1/compile/batch: many programs in, one NDJSON stream out
// (docs/API.md, "Batch compilation"). The batch endpoint is the
// block-granular cache made visible at the edge. It shares the request
// front, the per-program step and the per-block wait with POST
// /v1/compile (server.go); what is its own is the stream. Instead of
// assembling a program response at the end, each block's result is
// written — and flushed — as its own NDJSON frame the moment it
// completes. A client therefore sees every fast block of a batch
// before the slowest one finishes, and blocks shared between the
// batch's programs (or with any other in-flight request) are compiled
// exactly once.
//
// Frame order is completion order; frames carry the program index and
// the block's index within its program, so reassembly is deterministic
// regardless of interleaving. Each program gets a "program" trailer
// frame after its last block frame, or a single "error" frame carrying
// the error body /v1/compile would answer that program with, and the
// stream ends with one "done" frame.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/obs"
)

// BatchRequest is the body of POST /v1/compile/batch: an ordered list
// of independent compile requests. Priority may be set per program (or
// batch-wide via the X-Priority header, which wins); options, tier and
// deadline are per program.
type BatchRequest struct {
	Programs []CompileRequest `json:"programs"`
}

// BatchFrame is one NDJSON line of a batch response stream. Type
// selects which fields are populated:
//
//   - "block":   Program, Index, Block, Summary, Degradations, Cached
//   - "program": Program, Fingerprint, OptionsFingerprint, Blocks,
//     Cached, Coalesced, ServiceMillis — the per-program trailer,
//     emitted after the program's last block frame
//   - "error":   Program, Error, Stage, BlockLabel — terminates that
//     program (no trailer follows; block frames already in flight may
//     still appear and should be discarded)
//   - "done":    Programs, Blocks — always the stream's last frame
type BatchFrame struct {
	Type string `json:"type"`
	// Program is the index into the request's programs array; Index is
	// the block's position within that program (program order, dense
	// from 0). Together they make reassembly deterministic whatever
	// order frames complete in.
	Program int `json:"program"`
	Index   int `json:"index"`
	// Block is the scheduled block's textual IR; Summary and
	// Degradations are the same per-block shapes a /v1/compile response
	// carries. Cached is true when this block cost no new compilation.
	Block        string               `json:"block,omitempty"`
	Summary      *engine.BlockSummary `json:"summary,omitempty"`
	Degradations []compile.Event      `json:"degradations,omitempty"`
	Cached       bool                 `json:"cached,omitempty"`
	// Program-trailer fields, mirroring CompileResponse's stamps.
	Fingerprint        string  `json:"fingerprint,omitempty"`
	OptionsFingerprint string  `json:"options_fingerprint,omitempty"`
	Coalesced          bool    `json:"coalesced,omitempty"`
	ServiceMillis      float64 `json:"service_ms,omitempty"`
	Blocks             int     `json:"blocks,omitempty"`
	// Error fields, mirroring ErrorResponse.
	Error      string `json:"error,omitempty"`
	Stage      string `json:"stage,omitempty"`
	BlockLabel string `json:"block_label,omitempty"`
	// Done-trailer fields.
	Programs int `json:"programs,omitempty"`
}

// batchProgram is one program of a batch in flight.
type batchProgram struct {
	*program
	index     int
	remaining atomic.Int64 // blocks not yet streamed
	failed    atomic.Bool
}

// blockDone counts one streamed block and, after the program's last,
// sends the program trailer. A failed block never counts, so a failed
// program gets no trailer.
func (b *batchProgram) blockDone(frames chan<- BatchFrame) {
	if b.remaining.Add(-1) == 0 {
		frames <- b.trailer()
	}
}

// trailer renders the program's trailer frame.
func (b *batchProgram) trailer() BatchFrame {
	return BatchFrame{
		Type:               "program",
		Program:            b.index,
		Fingerprint:        b.fp,
		OptionsFingerprint: fmt.Sprintf("%016x", b.optsFP),
		Blocks:             len(b.blocks),
		Cached:             b.source != engine.SourceMiss,
		Coalesced:          b.source == engine.SourceCoalesced,
		ServiceMillis:      float64(time.Since(b.started).Microseconds()) / 1000,
	}
}

// handleCompileBatch streams a batch compilation as NDJSON. It shares
// the request front, the per-program step and the per-block wait with
// POST /v1/compile; what is its own is the stream. The handler
// goroutine is the single writer (write + flush per frame); a
// dispatcher goroutine runs the programs' steps, and one waiter
// goroutine per pending block forwards its result when it completes. A
// mid-stream client disconnect cancels every waiter promptly (enqueued
// compilations still complete and warm the cache, bounded by their own
// deadlines); the handler returns only after all of its goroutines
// have exited.
func (s *Server) handleCompileBatch(w http.ResponseWriter, r *http.Request) {
	reqs, started := s.front(w, r, true)
	if reqs == nil {
		return
	}
	tr := obs.TraceFrom(r.Context())
	s.stats.batchRequests.Inc()
	note(r, "batch_programs", len(reqs))
	tr.Root().SetAttr("batch_programs", fmt.Sprint(len(reqs)))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers now: the client learns the batch was accepted
		// before the first block finishes.
		flusher.Flush()
	}

	frames := make(chan BatchFrame, 64)
	go s.dispatchBatch(r, reqs, started, frames)

	// Single writer: one frame per line, flushed immediately so a slow
	// block never delays an already-finished one. On a write error the
	// loop keeps draining (never blocking the dispatcher or waiters) but
	// stops writing. The trace is kept by tail-based retention for what
	// the stream carried: an error frame, or a block with degradations
	// (a cached one included).
	streamed := 0
	var writeErr error
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for f := range frames {
		switch {
		case f.Type == "error":
			tr.SetError()
		case f.Type == "block" && len(f.Degradations) > 0:
			tr.SetDegraded()
		}
		if writeErr != nil {
			continue
		}
		if writeErr = enc.Encode(f); writeErr != nil {
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
		if f.Type == "block" {
			streamed++
			s.stats.blocksStreamed.Inc()
		}
	}
	note(r, "batch_blocks", streamed)
}

// dispatchBatch runs the per-program step for each program in turn and
// sends its frames: resolved blocks at once, each pending block from a
// waiter goroutine when it completes, then the program's trailer, or a
// single error frame if the program failed. Every program starts at
// the batch's arrival, so its deadline and its trailer's service_ms
// count the programs dispatched before it. The done frame comes last,
// and frames closes once every waiter has exited.
func (s *Server) dispatchBatch(r *http.Request, reqs []CompileRequest, started time.Time, frames chan<- BatchFrame) {
	defer close(frames)
	ctx := r.Context()
	var wg sync.WaitGroup
	total := 0
	for i := range reqs {
		if ctx.Err() != nil {
			break // client gone: stop dispatching new work
		}
		p, err := s.prepare(r, &reqs[i], started)
		if p != nil {
			total += len(p.blocks)
		}
		if err != nil {
			frames <- s.errorFrame(i, err)
			continue
		}
		bp := &batchProgram{program: p, index: i}
		bp.remaining.Store(int64(len(p.blocks)))
		if len(p.blocks) == 0 {
			// No block will count down to the trailer: send it now.
			frames <- bp.trailer()
		}
		for bi, resp := range p.blocks {
			if resp != nil {
				frames <- blockFrame(i, bi, resp, true)
				bp.blockDone(frames)
			}
		}
		for _, b := range p.pending {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := s.eng.Wait(ctx, b.res)
				switch {
				case err == nil:
					frames <- blockFrame(i, b.index, resp, b.res.Source != engine.SourceMiss)
					bp.blockDone(frames)
				case err == ctx.Err():
					// Client gone; nothing to emit and nobody to read it.
				case !bp.failed.Swap(true):
					frames <- s.errorFrame(i, err)
				}
			}()
		}
	}
	wg.Wait()
	if ctx.Err() == nil {
		frames <- BatchFrame{Type: "done", Programs: len(reqs), Blocks: total}
	}
}

// blockFrame renders one finished block as its NDJSON frame.
func blockFrame(program, index int, resp *engine.BlockResponse, cached bool) BatchFrame {
	sum := resp.Summary
	return BatchFrame{
		Type:         "block",
		Program:      program,
		Index:        index,
		Block:        resp.Block,
		Summary:      &sum,
		Degradations: resp.Degradations,
		Cached:       cached,
	}
}

// errorFrame renders a failed program's error frame: the error, stage
// and block of the body /v1/compile answers the program with.
func (s *Server) errorFrame(program int, err error) BatchFrame {
	_, body := s.errorBody(err)
	return BatchFrame{Type: "error", Program: program, Error: body.Error, Stage: body.Stage, BlockLabel: body.Block}
}
