package server

// Batch endpoint tests: NDJSON streaming order, mid-stream disconnect
// hygiene, and the block-sharing contract — the differential proof that
// block-granular caching changes cost, never content.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/ir"
)

// batchBlock renders one test block. Blocks with the same label and
// constant are textually identical across programs, so they share a
// block fingerprint and therefore a cache key; varying the constant
// makes a block unique.
func batchBlock(label string, c int) string {
	return fmt.Sprintf(`block %s freq=10
  v0 = const %d
  v1 = load x[v0+0]
  v2 = load x[v0+8]
  v3 = fadd v1, v2
  store y[v0+0], v3
end
`, label, c)
}

// batchFunc wraps blocks into one function.
func batchFunc(name string, blocks ...string) string {
	return "func " + name + "\n" + strings.Join(blocks, "")
}

// postBatch sends a batch request and returns the raw response for the
// caller to stream.
func postBatch(t *testing.T, ctx context.Context, url string, req BatchRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/compile/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readFrame decodes the next NDJSON line of a batch stream.
func readFrame(t *testing.T, rd *bufio.Reader) BatchFrame {
	t.Helper()
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("read frame: %v (got %q)", err, line)
	}
	var f BatchFrame
	if err := json.Unmarshal([]byte(line), &f); err != nil {
		t.Fatalf("decode frame: %v\n%s", err, line)
	}
	return f
}

// TestBatchStreamsBeforeSlowBlock holds one block's compilation hostage
// behind a gate and proves the stream is genuinely incremental: every
// other block's frame — including a whole other program and its trailer
// — is flushed to the client while the slow block is still compiling.
// Only after those frames are observed on the wire is the gate
// released.
func TestBatchStreamsBeforeSlowBlock(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 4})
	gate := make(chan struct{})
	s.compileFn = func(ctx context.Context, b *ir.Block, o compile.Options) (*compile.BlockResult, error) {
		if b.Label == "slow" {
			<-gate
		}
		return compile.RunBlock(ctx, b, o)
	}

	prog := batchFunc("f",
		batchBlock("fast1", 1),
		batchBlock("slow", 2),
		batchBlock("fast2", 3),
	)
	other := batchFunc("g", batchBlock("solo", 4))
	resp := postBatch(t, context.Background(), ts.URL, BatchRequest{
		Programs: []CompileRequest{{Program: prog}, {Program: other}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	rd := bufio.NewReader(resp.Body)

	// With the slow block gated, exactly these frames must arrive:
	// program 0's two fast blocks, program 1's only block, and program
	// 1's trailer. Receiving all four while the gate is still closed IS
	// the streaming proof.
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		f := readFrame(t, rd)
		switch {
		case f.Type == "block" && f.Program == 0:
			if f.Index != 0 && f.Index != 2 {
				t.Fatalf("block index %d of program 0 streamed while gated (only 0 and 2 may)", f.Index)
			}
			seen[fmt.Sprintf("block-0-%d", f.Index)] = true
			if f.Summary == nil || f.Block == "" {
				t.Fatalf("block frame missing summary or text: %+v", f)
			}
		case f.Type == "block" && f.Program == 1:
			seen["block-1-0"] = true
		case f.Type == "program" && f.Program == 1:
			seen["trailer-1"] = true
			if f.Blocks != 1 || f.Cached {
				t.Fatalf("program 1 trailer wrong: %+v", f)
			}
		default:
			t.Fatalf("unexpected frame while gated: %+v", f)
		}
	}
	for _, want := range []string{"block-0-0", "block-0-2", "block-1-0", "trailer-1"} {
		if !seen[want] {
			t.Fatalf("missing gated-phase frame %s (saw %v)", want, seen)
		}
	}

	// Release the slow block: its frame, program 0's trailer, and the
	// done frame follow, in that order (same-goroutine sends preserve
	// channel order).
	close(gate)
	f := readFrame(t, rd)
	if f.Type != "block" || f.Program != 0 || f.Index != 1 || f.Summary == nil || f.Summary.Label != "slow" {
		t.Fatalf("post-gate frame is not the slow block: %+v", f)
	}
	f = readFrame(t, rd)
	if f.Type != "program" || f.Program != 0 || f.Blocks != 3 || f.Cached {
		t.Fatalf("program 0 trailer wrong: %+v", f)
	}
	f = readFrame(t, rd)
	if f.Type != "done" || f.Programs != 2 || f.Blocks != 4 {
		t.Fatalf("done frame wrong: %+v", f)
	}
	if _, err := rd.ReadString('\n'); err == nil {
		t.Fatal("stream did not end after the done frame")
	}

	if n := s.stats.batchRequests.Value(); n != 1 {
		t.Errorf("batch requests = %d, want 1", n)
	}
	if n := s.stats.blocksStreamed.Value(); n != 4 {
		t.Errorf("blocks streamed = %d, want 4", n)
	}
}

// TestBatchClientDisconnectNoLeak cancels a batch request mid-stream
// while every block is still compiling and checks the server winds all
// of its per-block waiters down: goroutine count returns to its
// pre-request level (the enqueued compilations themselves complete and
// warm the cache — only the waiting and streaming stop).
func TestBatchClientDisconnectNoLeak(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2})
	gate := make(chan struct{})
	var started atomic.Int64
	s.compileFn = func(ctx context.Context, b *ir.Block, o compile.Options) (*compile.BlockResult, error) {
		started.Add(1)
		<-gate
		return compile.RunBlock(ctx, b, o)
	}

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var progs []CompileRequest
	for i := 0; i < 3; i++ {
		progs = append(progs, CompileRequest{Program: batchFunc(fmt.Sprintf("p%d", i),
			batchBlock("a", 100+i), batchBlock("b", 200+i))})
	}
	resp := postBatch(t, ctx, ts.URL, BatchRequest{Programs: progs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	// Wait until both workers are actually inside gated compilations, so
	// the cancel is genuinely mid-stream with waiters outstanding.
	for deadline := time.Now().Add(5 * time.Second); started.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("workers never picked up the batch jobs")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	resp.Body.Close()
	close(gate) // let the in-flight compilations finish and cache

	// Every waiter, the dispatcher, and the handler must exit; the
	// leaked-goroutine budget tolerates the test server's own idle
	// machinery.
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle after disconnect: %d, baseline %d", n, base)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The canceled batch's compilations still landed in the cache: a
	// fresh standalone request for one of its programs is a pure hit.
	status, again, _ := postCompile(t, ts.URL, progs[0])
	if status != http.StatusOK || !again.Cached {
		t.Errorf("canceled batch's blocks not cached (status %d, cached %v)", status, again != nil && again.Cached)
	}
	_ = s
}

// TestBatchSharedBlocksCompileOnce is the headline block-reuse
// guarantee: a two-program batch whose programs share 90% of their
// blocks compiles each shared block exactly once, visible in the
// compile-call count (single-flight leaders) and the block-cache
// counters. The stream itself must carry every (program, index) pair
// exactly once, a fingerprinted trailer per program, and nothing after
// the done frame.
func TestBatchSharedBlocksCompileOnce(t *testing.T) {
	s, ts := startServer(t, Config{})
	var calls atomic.Int64
	inner := s.compileFn
	s.compileFn = func(ctx context.Context, b *ir.Block, o compile.Options) (*compile.BlockResult, error) {
		calls.Add(1)
		return inner(ctx, b, o)
	}

	shared := make([]string, 9)
	for i := range shared {
		shared[i] = batchBlock(fmt.Sprintf("s%d", i), 100+i)
	}
	progA := batchFunc("a", append(append([]string{}, shared...), batchBlock("onlya", 500))...)
	progB := batchFunc("b", append(append([]string{}, shared...), batchBlock("onlyb", 600))...)

	resp := postBatch(t, context.Background(), ts.URL, BatchRequest{
		Programs: []CompileRequest{{Program: progA}, {Program: progB}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	var seen [2][10]bool
	trailers := 0
	for done := false; !done; {
		f := readFrame(t, rd)
		switch f.Type {
		case "block":
			if f.Program < 0 || f.Program >= 2 || f.Index < 0 || f.Index >= 10 {
				t.Fatalf("block frame outside the batch: %+v", f)
			}
			if seen[f.Program][f.Index] {
				t.Fatalf("duplicate block frame (%d, %d)", f.Program, f.Index)
			}
			seen[f.Program][f.Index] = true
		case "program":
			trailers++
			if f.Fingerprint == "" {
				t.Errorf("trailer for program %d has no fingerprint", f.Program)
			}
		case "error":
			t.Fatalf("error frame: %+v", f)
		case "done":
			if f.Programs != 2 || f.Blocks != 20 {
				t.Fatalf("done frame wrong: %+v", f)
			}
			done = true
		}
	}
	if line, err := rd.ReadString('\n'); err != io.EOF {
		t.Fatalf("stream continued after the done frame: %q (%v)", line, err)
	}
	for p := range seen {
		for i, ok := range seen[p] {
			if !ok {
				t.Errorf("program %d never streamed block %d", p, i)
			}
		}
	}
	if trailers != 2 {
		t.Fatalf("streamed %d trailers, want 2", trailers)
	}

	// 11 unique blocks across the batch: 9 shared + 2 singletons. Each
	// compiled exactly once; program B's 9 shared dispatches were hits
	// or coalesces on program A's leaders, never new compilations.
	if got := calls.Load(); got != 11 {
		t.Errorf("compile calls = %d, want 11 (shared blocks compiled more than once)", got)
	}
	if n := s.stats.blockMisses.Value(); n != 11 {
		t.Errorf("block misses = %d, want 11", n)
	}
	hits, coalesced := s.stats.blockHits.Value(), s.stats.blockCoalesced.Value()
	if hits+coalesced != 9 {
		t.Errorf("block hits+coalesced = %d+%d = %d, want 9", hits, coalesced, hits+coalesced)
	}
}

// TestBlockDifferentialEquivalence is the cross-program differential
// proof: program B, whose blocks are partly served from program A's
// cached per-block schedules, must produce byte-identical output to B
// compiled standalone on a fresh server — and to a direct compile.Run.
// The sharing must also be visible in the block-cache counters as
// cross-program block hits.
func TestBlockDifferentialEquivalence(t *testing.T) {
	shared := make([]string, 5)
	for i := range shared {
		shared[i] = batchBlock(fmt.Sprintf("s%d", i), 300+i)
	}
	progA := batchFunc("f", append(append([]string{}, shared...), batchBlock("onlya", 700))...)
	progB := batchFunc("f", append(append([]string{}, shared...), batchBlock("onlyb", 800))...)

	s1, ts1 := startServer(t, Config{})
	status, respA, _ := postCompile(t, ts1.URL, CompileRequest{Program: progA})
	if status != http.StatusOK {
		t.Fatal("compile A failed")
	}
	status, respB, _ := postCompile(t, ts1.URL, CompileRequest{Program: progB})
	if status != http.StatusOK {
		t.Fatal("compile B failed")
	}
	if respB.Cached {
		t.Error("B has a unique block; its response must not be fully cached")
	}
	if n := s1.stats.blockHits.Value(); n < 5 {
		t.Errorf("cross-program block hits = %d, want >= 5", n)
	}

	// Fresh server: B standalone, nothing shared, nothing warm.
	_, ts2 := startServer(t, Config{})
	status, fresh, _ := postCompile(t, ts2.URL, CompileRequest{Program: progB})
	if status != http.StatusOK {
		t.Fatal("fresh compile B failed")
	}
	if !bytes.Equal(stripStamps(respB), stripStamps(fresh)) {
		t.Errorf("B served with shared cached blocks differs from standalone B:\n--- shared\n%s\n--- standalone\n%s",
			stripStamps(respB), stripStamps(fresh))
	}

	// And against the compiler directly.
	prog, err := ir.Parse(progB)
	if err != nil {
		t.Fatal(err)
	}
	want, err := compile.Run(context.Background(), prog, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if respB.Program != want.Program.String() {
		t.Errorf("assembled response differs from direct compile.Run:\n--- served\n%s--- direct\n%s",
			respB.Program, want.Program.String())
	}
	if respA.Program == respB.Program {
		t.Error("A and B are different programs but rendered identically")
	}
}

// TestBatchBadRequests covers the pre-stream failure surface: wrong
// method, malformed body, empty batch — plus a per-program parse error
// that must arrive as an in-stream error frame without sinking the rest
// of the batch.
func TestBatchBadRequests(t *testing.T) {
	_, ts := startServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/compile/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/compile/batch", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/compile/batch", "application/json", strings.NewReader(`{"programs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}

	// One broken program inside an otherwise healthy batch: the stream
	// carries its error frame and the healthy program's results.
	hresp := postBatch(t, context.Background(), ts.URL, BatchRequest{Programs: []CompileRequest{
		{Program: "not a program"},
		{Program: batchFunc("ok", batchBlock("fine", 42))},
	}})
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch status %d", hresp.StatusCode)
	}
	rd := bufio.NewReader(hresp.Body)
	var sawError, sawBlock, sawDone bool
	for !sawDone {
		f := readFrame(t, rd)
		switch f.Type {
		case "error":
			if f.Program != 0 || f.Stage != "parse" {
				t.Errorf("error frame misattributed: %+v", f)
			}
			sawError = true
		case "block":
			if f.Program != 1 {
				t.Errorf("block frame from the broken program: %+v", f)
			}
			sawBlock = true
		case "done":
			sawDone = true
		}
	}
	if !sawError || !sawBlock {
		t.Errorf("mixed batch stream incomplete: error=%v block=%v", sawError, sawBlock)
	}
}

// TestBatchProgramsShareDeadline: a batch program's deadline runs from
// the batch's arrival, not from when the dispatcher reaches it, so two
// programs with equal timeout_ms compile every block under one deadline
// whatever the earlier program's parse and dispatch cost.
func TestBatchProgramsShareDeadline(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1})
	var mu sync.Mutex
	var deadlines []time.Time
	s.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
		d, _ := ctx.Deadline()
		mu.Lock()
		deadlines = append(deadlines, d)
		mu.Unlock()
		return compile.RunBlock(ctx, b, opts)
	}
	frames := readBatch(t, ts.URL, BatchRequest{Programs: []CompileRequest{
		{Program: batchFunc("first", batchBlock("a", 1), batchBlock("b", 2)), TimeoutMillis: 5000},
		{Program: batchFunc("second", batchBlock("c", 3)), TimeoutMillis: 5000},
	}})
	for _, f := range frames {
		if f.Type == "error" {
			t.Fatalf("program %d failed: %s", f.Program, f.Error)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(deadlines) != 3 {
		t.Fatalf("%d compiles, want 3", len(deadlines))
	}
	for i, d := range deadlines {
		if !d.Equal(deadlines[0]) {
			t.Errorf("job %d ran under deadline %v, job 0 under %v; want the batch's one deadline",
				i, d.Format(time.StampMicro), deadlines[0].Format(time.StampMicro))
		}
	}
}

// readBatch posts a batch and reads its whole stream, through the done
// frame.
func readBatch(t *testing.T, url string, req BatchRequest) []BatchFrame {
	t.Helper()
	resp := postBatch(t, context.Background(), url, req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	var frames []BatchFrame
	for {
		f := readFrame(t, rd)
		frames = append(frames, f)
		if f.Type == "done" {
			return frames
		}
	}
}

// compileCases are one request for each outcome of the shared request
// path (compiled, zero blocks, each client error, a compile error), with
// the status /v1/compile answers it with.
var compileCases = []struct {
	name   string
	req    CompileRequest
	status int
}{
	{"demo", CompileRequest{Program: demoProgram}, http.StatusOK},
	{"two-func", CompileRequest{Program: batchFunc("f", batchBlock("a", 1), batchBlock("b", 2)) + "\n" +
		batchFunc("g", batchBlock("c", 3))}, http.StatusOK},
	{"zero-blocks", CompileRequest{Program: "func f\n"}, http.StatusOK},
	{"bad-options", CompileRequest{Program: demoProgram,
		Options: RequestOptions{Scheduler: "quantum"}}, http.StatusBadRequest},
	{"bad-priority", CompileRequest{Program: demoProgram, Priority: "urgent"}, http.StatusBadRequest},
	{"parse-error", CompileRequest{Program: "block without func\n"}, http.StatusBadRequest},
	{"regalloc", CompileRequest{Program: hardErrorProgram}, http.StatusUnprocessableEntity},
}

// TestBatchMatchesCompile pins the batch endpoint to /v1/compile, whose
// bytes are the reference. Each program goes once through a batch and
// once through /v1/compile, each on a fresh server. A program that
// compiles must stream the blocks the /v1/compile body carries (text,
// summaries and degradations, in program order) and a trailer with the
// same fingerprints; one that fails must stream an error frame with the
// error, stage and block of the /v1/compile error body.
func TestBatchMatchesCompile(t *testing.T) {
	for _, c := range compileCases {
		t.Run(c.name, func(t *testing.T) {
			_, ts := startServer(t, Config{})
			status, want, wantErr := postCompile(t, ts.URL, c.req)
			if status != c.status {
				t.Fatalf("/v1/compile status %d, want %d (%+v)", status, c.status, wantErr)
			}
			_, bts := startServer(t, Config{})
			frames := readBatch(t, bts.URL, BatchRequest{Programs: []CompileRequest{c.req}})

			var blocks []*BatchFrame
			var trailer, errFrame *BatchFrame
			for i := range frames {
				f := &frames[i]
				switch f.Type {
				case "block":
					blocks = append(blocks, f)
				case "program":
					trailer = f
				case "error":
					errFrame = f
				}
			}
			if wantErr != nil {
				if errFrame == nil || trailer != nil {
					t.Fatalf("batch streamed error %+v, trailer %+v; want only an error frame", errFrame, trailer)
				}
				got := ErrorResponse{Error: errFrame.Error, Stage: errFrame.Stage, Block: errFrame.BlockLabel}
				if w := (ErrorResponse{Error: wantErr.Error, Stage: wantErr.Stage, Block: wantErr.Block}); got != w {
					t.Errorf("batch error frame %+v, /v1/compile body %+v", got, w)
				}
				return
			}
			if errFrame != nil || trailer == nil {
				t.Fatalf("batch streamed error %+v, trailer %+v; want a trailer and no error", errFrame, trailer)
			}
			if trailer.Fingerprint != want.Fingerprint || trailer.OptionsFingerprint != want.OptionsFingerprint {
				t.Errorf("trailer fingerprints %s/%s, /v1/compile %s/%s", trailer.Fingerprint,
					trailer.OptionsFingerprint, want.Fingerprint, want.OptionsFingerprint)
			}
			if len(blocks) != len(want.Blocks) {
				t.Fatalf("batch streamed %d blocks, /v1/compile has %d", len(blocks), len(want.Blocks))
			}
			sort.Slice(blocks, func(i, j int) bool { return blocks[i].Index < blocks[j].Index })
			var summaries []engine.BlockSummary
			var degradations []compile.Event
			for i, f := range blocks {
				if f.Index != i || f.Summary == nil {
					t.Fatalf("block frame %d: index %d, summary %v", i, f.Index, f.Summary)
				}
				summaries = append(summaries, *f.Summary)
				degradations = append(degradations, f.Degradations...)
			}
			// want.Blocks is [] for a program without blocks; summaries
			// stays nil.
			if len(summaries) > 0 && !reflect.DeepEqual(summaries, want.Blocks) {
				t.Errorf("batch summaries %+v, /v1/compile %+v", summaries, want.Blocks)
			}
			if len(degradations) != len(want.Degradations) ||
				(len(degradations) > 0 && !reflect.DeepEqual(degradations, want.Degradations)) {
				t.Errorf("batch degradations %+v, /v1/compile %+v", degradations, want.Degradations)
			}
			// The /v1/compile text is the program's funcs around these
			// block texts, in program order.
			prog, err := ir.Parse(c.req.Program)
			if err != nil {
				t.Fatal(err)
			}
			var text strings.Builder
			i := 0
			for fi, fn := range prog.Funcs {
				if fi > 0 {
					text.WriteByte('\n')
				}
				text.WriteString("func " + fn.Name + "\n")
				for range fn.Blocks {
					text.WriteString(blocks[i].Block)
					i++
				}
			}
			if text.String() != want.Program {
				t.Errorf("batch blocks assemble to\n%s\n/v1/compile program\n%s", text.String(), want.Program)
			}
		})
	}
}
