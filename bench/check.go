package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"bsched/internal/interp"
	"bsched/internal/ir"
	"bsched/internal/pipeline"
	"bsched/internal/regalloc"
	"bsched/internal/server"
)

// checks counts output-check failures; each one counts as a failed
// operation in the run's result.
type checks struct {
	failed int
	first  []string // the first few failure messages, for stderr
}

func (c *checks) add(err error) {
	if err == nil {
		return
	}
	c.failed++
	if len(c.first) < 5 {
		c.first = append(c.first, err.Error())
	}
}

// sameMemory runs the source block and the compiled block in the
// reference interpreter from the same initial state and requires equal
// final memory, the register allocator's spill area aside.
func sameMemory(src, out *ir.Block) error {
	a, err := interp.Run(src.Instrs, nil)
	if err != nil {
		return fmt.Errorf("block %s: source: %w", src.Label, err)
	}
	b, err := interp.Run(out.Instrs, nil)
	if err != nil {
		return fmt.Errorf("block %s: compiled: %w", src.Label, err)
	}
	if !interp.MemEqual(a, b, regalloc.StackSym) {
		return fmt.Errorf("block %s: compiled code leaves different memory", src.Label)
	}
	return nil
}

// checkProgram interp-checks every compiled block against its source.
func checkProgram(src *ir.Program, out []*ir.Block) error {
	in := src.Blocks()
	if len(in) != len(out) {
		return fmt.Errorf("program %s: %d blocks back for %d sent", src.Name, len(out), len(in))
	}
	for i := range in {
		if err := sameMemory(in[i], out[i]); err != nil {
			return fmt.Errorf("program %s: %w", src.Name, err)
		}
	}
	return nil
}

// compiledBlocks decodes a /v1/compile response and parses its program.
func compiledBlocks(body []byte) ([]*ir.Block, error) {
	var resp server.CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	p, err := ir.Parse(resp.Program)
	if err != nil {
		return nil, fmt.Errorf("parse response program: %w", err)
	}
	return p.Blocks(), nil
}

// streamBlocks validates an NDJSON batch stream: every line is a frame,
// no program failed, every block of every program arrives exactly once
// and parses, each program gets its trailer, and the stream ends in
// "done". It returns each program's compiled blocks in program order.
func streamBlocks(r *request, body []byte) ([][]*ir.Block, error) {
	out := make([][]*ir.Block, len(r.progs))
	for i, s := range r.progs {
		out[i] = make([]*ir.Block, len(s.prog.Blocks()))
	}
	trailers := make([]bool, len(r.progs))
	var last string
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var f server.BatchFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return nil, fmt.Errorf("stream frame: %w", err)
		}
		if last == "done" {
			return nil, fmt.Errorf("frame %q after done", f.Type)
		}
		last = f.Type
		if f.Type != "done" && (f.Program < 0 || f.Program >= len(r.progs)) {
			return nil, fmt.Errorf("%s frame for program %d of %d", f.Type, f.Program, len(r.progs))
		}
		switch f.Type {
		case "block":
			blocks := out[f.Program]
			if f.Index < 0 || f.Index >= len(blocks) {
				return nil, fmt.Errorf("block frame index %d of %d", f.Index, len(blocks))
			}
			if blocks[f.Index] != nil {
				return nil, fmt.Errorf("program %d block %d streamed twice", f.Program, f.Index)
			}
			b, err := ir.ParseBlock(f.Block)
			if err != nil {
				return nil, fmt.Errorf("program %d block %d: %w", f.Program, f.Index, err)
			}
			blocks[f.Index] = b
		case "program":
			trailers[f.Program] = true
		case "error":
			return nil, fmt.Errorf("program %d failed: %s", f.Program, f.Error)
		case "done":
		default:
			return nil, fmt.Errorf("unknown frame type %q", f.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if last != "done" {
		return nil, fmt.Errorf("stream truncated: last frame %q", last)
	}
	for i, blocks := range out {
		for k, b := range blocks {
			if b == nil {
				return nil, fmt.Errorf("program %d block %d never streamed", i, k)
			}
		}
		if !trailers[i] {
			return nil, fmt.Errorf("program %d has no trailer", i)
		}
	}
	return out, nil
}

// checkResponse applies the interp check to one kept response.
func checkResponse(r *request, body []byte) error {
	if r.batch {
		progs, err := streamBlocks(r, body)
		if err != nil {
			return err
		}
		for i, s := range r.progs {
			if err := checkProgram(s.prog, progs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	blocks, err := compiledBlocks(body)
	if err != nil {
		return err
	}
	return checkProgram(r.progs[0].prog, blocks)
}

// bodyHash hashes a /v1/compile response with its per-request stamps
// (cached, coalesced, service time) cleared, so a cache hit can be
// compared with the first miss for the same program.
func bodyHash(body []byte) ([32]byte, bool, error) {
	var resp server.CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return [32]byte{}, false, fmt.Errorf("decode response: %w", err)
	}
	cached := resp.Cached
	resp.Cached, resp.Coalesced, resp.ServiceMillis = false, false, 0
	b, err := json.Marshal(resp)
	if err != nil {
		return [32]byte{}, false, err
	}
	return sha256.Sum256(b), cached, nil
}

// programResult wraps compiled blocks for the experiments package's
// measurement code.
func programResult(p *ir.Program, blocks []*ir.Block) *pipeline.ProgramResult {
	out := &pipeline.ProgramResult{Program: p}
	for _, b := range blocks {
		out.Blocks = append(out.Blocks, &pipeline.BlockResult{Block: b})
	}
	return out
}
