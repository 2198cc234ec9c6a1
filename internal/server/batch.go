package server

// POST /v1/compile/batch: many programs in, one NDJSON stream out
// (docs/API.md, "Batch compilation"). The batch endpoint is the
// block-granular cache made visible at the edge: every program fans out
// into per-block cache dispatches exactly as POST /v1/compile does, but
// instead of assembling a program response at the end, each block's
// result is written — and flushed — as its own NDJSON frame the moment
// it completes. A client therefore sees every fast block of a batch
// before the slowest one finishes, and blocks shared between the
// batch's programs (or with any other in-flight request) are compiled
// exactly once.
//
// Frame order is completion order; frames carry the program index and
// the block's index within its program, so reassembly is deterministic
// regardless of interleaving. Each program gets a "program" trailer
// frame after its last block frame (or a single "error" frame if any of
// its blocks failed), and the stream ends with one "done" frame.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bsched/internal/admission"
	"bsched/internal/chaos"
	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/ir"
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
	Block        string                    `json:"block,omitempty"`
	Summary      *engine.BlockSummary      `json:"summary,omitempty"`
	Degradations []engine.DegradationEvent `json:"degradations,omitempty"`
	Cached       bool                      `json:"cached,omitempty"`
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

// batchProgram tracks one program's in-flight blocks so the goroutine
// that finishes its last block emits the trailer.
type batchProgram struct {
	index     int
	remaining atomic.Int64
	failed    atomic.Bool
	compiled  atomic.Bool
	coalesced atomic.Bool
	frame     BatchFrame // trailer template: fingerprints, block count
	start     time.Time
}

// blockDone records one finished block and, on the last one, emits the
// program trailer (unless any block failed — the error frame already
// terminated the program).
func (p *batchProgram) blockDone(frames chan<- BatchFrame) {
	if p.remaining.Add(-1) != 0 || p.failed.Load() {
		return
	}
	f := p.frame
	f.Type = "program"
	f.Program = p.index
	f.Cached = !p.compiled.Load()
	f.Coalesced = p.coalesced.Load() && !p.compiled.Load()
	f.ServiceMillis = float64(time.Since(p.start).Microseconds()) / 1000
	frames <- f
}

// fail emits the program's error frame exactly once.
func (p *batchProgram) fail(frames chan<- BatchFrame, err error) {
	already := p.failed.Swap(true)
	p.remaining.Add(-1)
	if already {
		return
	}
	f := BatchFrame{Type: "error", Program: p.index, Error: err.Error()}
	var ce *compile.Error
	if errors.As(err, &ce) {
		f.Stage = ce.Stage
		f.BlockLabel = ce.Block
	}
	frames <- f
}

// handleCompileBatch streams a batch compilation as NDJSON. The
// handler goroutine is the single writer (write + flush per frame); a
// dispatcher goroutine fans the programs out into per-block cache
// dispatches, and one waiter goroutine per pending block forwards its
// result when the leader completes. A mid-stream client disconnect
// cancels every waiter promptly (enqueued compilations still complete
// and warm the cache, bounded by their own deadlines); the handler
// returns only after all of its goroutines have exited.
func (s *Server) handleCompileBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, &ErrorResponse{Error: "POST only"})
		return
	}
	s.cfg.Chaos.Delay(chaos.LatencySpike)
	tr := obs.TraceFrom(r.Context())

	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = admission.DefaultTenant
	}
	tc := s.stats.tenant(tenant)
	tc.requests.Inc()
	note(r, "tenant", tenant)

	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		s.stats.clientErrors.Add(1)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, &ErrorResponse{Error: fmt.Sprintf("decode request: %v", err)})
		return
	}
	if len(req.Programs) == 0 {
		s.stats.clientErrors.Add(1)
		writeError(w, http.StatusBadRequest, &ErrorResponse{Error: "empty batch: programs is required"})
		return
	}
	// Tenant quota charges one token per program — a batch of N costs
	// what N standalone requests would. Denial rejects the whole batch
	// before the stream starts (tokens already consumed stay consumed,
	// exactly as N sequential requests would have).
	for range req.Programs {
		d := s.quota.Allow(tenant)
		if d.OK {
			if d.Remaining >= 0 {
				h := w.Header()
				h.Set("X-RateLimit-Limit", strconv.Itoa(d.Limit))
				h.Set("X-RateLimit-Remaining", strconv.Itoa(d.Remaining))
			}
			continue
		}
		tc.rejected.Inc()
		s.stats.quotaRejected.Inc()
		s.stats.rejected.Add(1)
		tr.Root().Event("429-quota")
		retry := d.RetryAfterSeconds()
		h := w.Header()
		h.Set("X-RateLimit-Limit", strconv.Itoa(d.Limit))
		h.Set("X-RateLimit-Remaining", strconv.Itoa(d.Remaining))
		h.Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, &ErrorResponse{
			Error:             fmt.Sprintf("tenant %q over quota (%d req/s sustained)", tenant, int(s.cfg.TenantRate)),
			RetryAfterSeconds: retry,
		})
		return
	}

	s.stats.batchRequests.Inc()
	note(r, "batch_programs", len(req.Programs))
	tr.Root().SetAttr("batch_programs", fmt.Sprint(len(req.Programs)))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers now: the client learns the batch was accepted
		// before the first block finishes.
		flusher.Flush()
	}

	ctx := r.Context()
	frames := make(chan BatchFrame, 64)
	go func() {
		defer close(frames)
		var wg sync.WaitGroup
		totalBlocks := 0
		for pi := range req.Programs {
			if ctx.Err() != nil {
				break // client gone: stop dispatching new work
			}
			preq := &req.Programs[pi]
			p := &batchProgram{index: pi, start: time.Now()}

			if s.cfg.ForcePolicy != "" {
				preq.Options.Policy = s.cfg.ForcePolicy
			}
			opts, err := preq.Options.compileOptions()
			if err != nil {
				frames <- BatchFrame{Type: "error", Program: pi, Stage: "options", Error: err.Error()}
				continue
			}
			prioTag := r.Header.Get("X-Priority")
			if prioTag == "" {
				prioTag = preq.Priority
			}
			prio, err := admission.ParsePriority(prioTag)
			if err != nil {
				frames <- BatchFrame{Type: "error", Program: pi, Stage: "priority", Error: err.Error()}
				continue
			}
			prog, err := ir.Parse(preq.Program)
			if err != nil {
				frames <- BatchFrame{Type: "error", Program: pi, Stage: "parse", Error: err.Error()}
				continue
			}
			opts.Parallelism = s.eng.BlockParallelism()
			tier := preq.Options.Budget
			if tier == "" {
				tier = TierDefault
			}
			deadline := s.timeout(preq.TimeoutMillis)
			optsFP := preq.Options.fingerprint()
			fp, blockFPs := prog.Fingerprints()
			blocks := prog.Blocks()
			p.remaining.Store(int64(len(blocks)))
			p.frame = BatchFrame{
				Fingerprint:        fmt.Sprintf("%016x", fp),
				OptionsFingerprint: fmt.Sprintf("%016x", optsFP),
				Blocks:             len(blocks),
			}
			totalBlocks += len(blocks)

			for bi, b := range blocks {
				if p.failed.Load() {
					// An admission rejection already terminated this
					// program; drain the untouched remainder of its count.
					p.remaining.Add(-1)
					continue
				}
				key := engine.Key{Block: blockFPs[bi], Opts: optsFP}
				resp, e, disp, err := s.dispatchBlock(r, tr, b, key, opts, deadline, p.start, tier, prio)
				if err != nil {
					p.fail(frames, err)
					continue
				}
				switch disp {
				case blockHit, blockDisk, blockPeer:
					frames <- blockFrame(pi, bi, resp, true)
					p.blockDone(frames)
				case blockEnqueued, blockCoalesced:
					if disp == blockEnqueued {
						p.compiled.Store(true)
					} else {
						p.coalesced.Store(true)
					}
					wg.Add(1)
					go func(bi int, e *engine.Entry, compiled bool, left time.Duration) {
						defer wg.Done()
						// A coalesced block waits on another request's
						// leader under this program's own deadline; our own
						// enqueued jobs are deadline-bounded by the engine
						// and need no extra timer.
						var expire <-chan time.Time
						if !compiled {
							t := time.NewTimer(left)
							defer t.Stop()
							expire = t.C
						}
						select {
						case <-e.Done:
							if e.Err != nil {
								p.fail(frames, e.Err)
								return
							}
							frames <- blockFrame(pi, bi, e.Resp, !compiled)
							p.blockDone(frames)
						case <-expire:
							p.fail(frames, errDeadline)
						case <-ctx.Done():
							// Client gone; nothing to emit and nobody to
							// read it. The leader still completes and warms
							// the cache.
						case <-s.eng.Done():
							p.fail(frames, engine.ErrShutdown)
						}
					}(bi, e, disp == blockEnqueued, deadline-time.Since(p.start))
				}
			}
		}
		wg.Wait()
		if ctx.Err() == nil {
			frames <- BatchFrame{Type: "done", Programs: len(req.Programs), Blocks: totalBlocks}
		}
	}()

	// Single writer: one frame per line, flushed immediately so a slow
	// block never delays an already-finished one. On a write error the
	// loop keeps draining (never blocking the dispatcher or waiters) but
	// stops writing.
	streamed := 0
	var writeErr error
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for f := range frames {
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
