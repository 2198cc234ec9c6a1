package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bsched/internal/compile"
	"bsched/internal/ir"
	"bsched/internal/obs"
	"bsched/internal/sched"
)

const demoProgram = `func demo
block body freq=100
  v0 = const 8
  v1 = load x[v0+0]
  v2 = load x[v0+8]
  v3 = fadd v1, v2
  v4 = load idx[v0+0]
  v5 = load table[v4+0]
  v6 = fmul v3, v5
  store out[v0+0], v6
  v7 = addi v0, 8
  v8 = slt v7, v6
  br v8, body
end
`

// postCompile sends one compile request and decodes the response.
func postCompile(t *testing.T, url string, req CompileRequest) (int, *CompileResponse, *ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		var out CompileResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decode 200 body: %v\n%s", err, raw)
		}
		return resp.StatusCode, &out, nil
	}
	var out ErrorResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode %d body: %v\n%s", resp.StatusCode, err, raw)
	}
	return resp.StatusCode, nil, &out
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// TestCompileEndToEnd round-trips the demo program and checks the served
// schedule is exactly what a direct compile.Run produces.
func TestCompileEndToEnd(t *testing.T) {
	_, ts := startServer(t, Config{})
	status, resp, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	prog, err := ir.Parse(demoProgram)
	if err != nil {
		t.Fatal(err)
	}
	want, err := compile.Run(context.Background(), prog, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Program != want.Program.String() {
		t.Errorf("served schedule differs from direct compile.Run:\n--- served\n%s--- direct\n%s", resp.Program, want.Program.String())
	}
	if len(resp.Blocks) != 1 || resp.Blocks[0].Label != "body" {
		t.Errorf("block summaries wrong: %+v", resp.Blocks)
	}
	wantFP := fmt.Sprintf("%016x", prog.Fingerprint())
	if resp.Fingerprint != wantFP {
		t.Errorf("fingerprint echo %q, want %q", resp.Fingerprint, wantFP)
	}
	if resp.Cached || resp.Coalesced {
		t.Errorf("first request marked cached=%v coalesced=%v", resp.Cached, resp.Coalesced)
	}
}

// TestCacheHit posts the same request twice and expects the second to be
// served from cache with an identical schedule; a third with different
// options must miss.
func TestCacheHit(t *testing.T) {
	s, ts := startServer(t, Config{})
	_, first, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	status, second, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	if status != http.StatusOK || !second.Cached {
		t.Fatalf("second identical request not served from cache (status %d, cached %v)", status, second.Cached)
	}
	if second.Program != first.Program {
		t.Error("cached schedule differs from original")
	}
	// Spelled-out defaults normalize to the same options fingerprint.
	_, third, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Scheduler: "balanced", Alias: "disjoint", Budget: TierDefault}})
	if !third.Cached {
		t.Error("request with spelled-out default options missed the cache")
	}
	// A different latency model is a different key.
	_, fourth, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram,
		Options: RequestOptions{Scheduler: "traditional", TradLatency: 5}})
	if fourth.Cached {
		t.Error("different options served the cached balanced schedule")
	}
	if hits, misses := s.stats.cacheHits.Value(), s.stats.cacheMisses.Value(); hits < 2 || misses != 2 {
		t.Errorf("stats hits=%d misses=%d, want >=2 and ==2", hits, misses)
	}
}

// TestSingleFlight fires many concurrent identical requests while the
// compile function is gated shut, then opens the gate: exactly one
// underlying compilation must run, and every request must get the same
// successful response.
func TestSingleFlight(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 4})
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	s.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
		calls.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return compile.RunBlock(ctx, b, opts)
	}

	const n = 16
	statuses := make([]int, n)
	programs := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
			statuses[i] = status
			if resp != nil {
				programs[i] = resp.Program
			}
		}(i)
	}

	<-started // the leader is inside compileFn
	// Give the remaining requests time to coalesce onto the in-flight
	// entry, then let the one compilation finish.
	deadline := time.Now().Add(2 * time.Second)
	for s.stats.coalesced.Value() < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("%d concurrent identical requests ran %d compilations, want exactly 1", n, got)
	}
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Errorf("request %d: status %d", i, statuses[i])
		}
		if programs[i] != programs[0] {
			t.Errorf("request %d got a different schedule", i)
		}
	}
}

// TestBackpressure saturates a 1-worker, depth-1 queue and expects the
// overflow request to be rejected with 503 + Retry-After instead of
// queueing, then drains and confirms the accepted requests complete.
func TestBackpressure(t *testing.T) {
	// Caching off: every request is its own leader, so each occupies a
	// queue slot regardless of content.
	s, ts := startServer(t, Config{Workers: 1, QueueDepth: 1, CacheCapacity: -1})
	gate := make(chan struct{})
	running := make(chan struct{}, 8)
	s.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
		running <- struct{}{}
		<-gate
		return compile.RunBlock(ctx, b, opts)
	}

	results := make(chan int, 2)
	post := func() {
		status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
		results <- status
	}
	go post() // A: picked up by the lone worker
	<-running
	go post() // B: parks in the queue's one slot
	deadline := time.Now().Add(2 * time.Second)
	for s.eng.QueueLen() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.eng.QueueLen(); n != 1 {
		t.Fatalf("queue depth %d, want 1", n)
	}

	// C: worker busy, queue full → must be rejected, not queued.
	body, _ := json.Marshal(CompileRequest{Program: demoProgram})
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow request got %d, want 503:\n%s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without a Retry-After header")
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if status := <-results; status != http.StatusOK {
			t.Errorf("accepted request finished with %d", status)
		}
	}
	if got := s.stats.rejected.Value(); got != 1 {
		t.Errorf("rejected counter %d, want 1", got)
	}
}

// hardErrorProgram reads v9, which nothing defines: a hard regalloc
// error in block "oops".
const hardErrorProgram = "func f\nblock oops freq=1\n  v1 = addi v9, 1\n  store out[0], v1\nend\n"

// TestCompileHardError routes a use-before-def program (a hard regalloc
// error) and expects 422 with the stage and block attributed, and no
// cache pollution: a later identical request recompiles.
func TestCompileHardError(t *testing.T) {
	s, ts := startServer(t, Config{})
	bad := hardErrorProgram
	status, _, errResp := postCompile(t, ts.URL, CompileRequest{Program: bad})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", status)
	}
	if errResp.Stage != "regalloc" || errResp.Block != "oops" {
		t.Errorf("error attribution stage=%q block=%q", errResp.Stage, errResp.Block)
	}
	if n := s.eng.CacheLen(); n != 0 {
		t.Errorf("failed compilation left %d cache entries", n)
	}
	if status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: bad}); status != http.StatusUnprocessableEntity {
		t.Errorf("second bad request got %d, want 422 again", status)
	}
	if misses := s.stats.cacheMisses.Value(); misses != 2 {
		t.Errorf("errors must not be cached: misses=%d, want 2", misses)
	}
}

// TestBadRequests exercises the client-error edges of the API surface.
func TestBadRequests(t *testing.T) {
	s, ts := startServer(t, Config{MaxRequestBytes: 2048})

	t.Run("malformed-json", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("parse-error", func(t *testing.T) {
		status, _, errResp := postCompile(t, ts.URL, CompileRequest{Program: "block without func\n"})
		if status != http.StatusBadRequest || errResp.Stage != "parse" {
			t.Errorf("status %d stage %q, want 400/parse", status, errResp.Stage)
		}
	})
	t.Run("bad-options", func(t *testing.T) {
		status, _, errResp := postCompile(t, ts.URL, CompileRequest{
			Program: demoProgram, Options: RequestOptions{Scheduler: "quantum"}})
		if status != http.StatusBadRequest || errResp.Stage != "options" {
			t.Errorf("status %d stage %q, want 400/options", status, errResp.Stage)
		}
	})
	t.Run("bad-tier", func(t *testing.T) {
		status, _, _ := postCompile(t, ts.URL, CompileRequest{
			Program: demoProgram, Options: RequestOptions{Budget: "galactic"}})
		if status != http.StatusBadRequest {
			t.Errorf("status %d, want 400", status)
		}
	})
	t.Run("too-large", func(t *testing.T) {
		huge := CompileRequest{Program: strings.Repeat("# padding\n", 4096)}
		status, _, _ := postCompile(t, ts.URL, huge)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413", status)
		}
	})
	// 413 depends on the body's size alone: the body is read whole
	// before it is decoded, so neither a syntax error nor a complete
	// request before the limit answers first.
	for _, c := range []struct{ name, body string }{
		{"malformed-over-limit", "{nope" + strings.Repeat(" ", 4096)},
		{"trailing-over-limit", `{"program":"func f\n"}` + strings.Repeat(" ", 4096)},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("status %d, want 413", resp.StatusCode)
			}
		})
	}
	// A complete request followed by more text is malformed as a whole:
	// the tail is an error, not ignored.
	for _, c := range []struct{ name, path, body string }{
		{"second-object", "/v1/compile", `{"program":"func f\n"} {"program":"garbage"}`},
		{"trailing-word", "/v1/compile", `{"program":"func f\n"} garbage`},
		{"batch-trailing-text", "/v1/compile/batch", `{"programs":[{"program":"func f\n"}]} garbage`},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			var e ErrorResponse
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "after top-level value") {
				t.Errorf("status %d, error %q (%v); want 400 naming the text after the value", resp.StatusCode, e.Error, err)
			}
		})
	}
	t.Run("wrong-method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/compile")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("status %d, want 405", resp.StatusCode)
		}
	})

	if n := s.stats.clientErrors.Value(); n < 4 {
		t.Errorf("client error counter %d, want >= 4", n)
	}
}

// TestZeroBlockProgramBlocksArray checks a program without blocks
// answers "blocks":[], the array docs/API.md documents, not null.
func TestZeroBlockProgramBlocksArray(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(`{"program":"func f\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte(`"blocks":[]`)) {
		t.Fatalf("status %d, body %s; want 200 with \"blocks\":[]", resp.StatusCode, raw)
	}
}

// TestHealthzAndStats checks the observability endpoints are wired and
// coherent.
func TestHealthzAndStats(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	postCompile(t, ts.URL, CompileRequest{Program: demoProgram})

	fams := getStats(t, ts.URL)
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"bschedd_requests_total", nil, 2},
		{"bschedd_responses_total", []string{"ok"}, 2},
		{"bschedd_cache_events_total", []string{"hit"}, 1},
		{"bschedd_cache_events_total", []string{"miss"}, 1},
		{"bschedd_cache_entries", nil, 1},
	} {
		if got := statValue(fams, c.name, c.labels...); got != c.want {
			t.Errorf("%s%v = %g, want %g", c.name, c.labels, got, c.want)
		}
	}
	if statValue(fams, "bschedd_workers") <= 0 || statValue(fams, "bschedd_queue_capacity") <= 0 {
		t.Error("worker or queue-capacity gauge not positive")
	}
	h, bounds, _ := obs.Find(fams, "bschedd_request_duration_seconds")
	if p50 := h.Quantile(bounds, 0.5); h.Count != 2 || p50 <= 0 {
		t.Errorf("request duration: %d samples, p50 %gs; want 2 samples, p50 above 0", h.Count, p50)
	}
}

// TestConcurrentClients hammers the service (and therefore the sharded
// cache and single-flight path) from many goroutines; run under
// `make test-race` this is the cache's race-freedom proof.
func TestConcurrentClients(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 4, QueueDepth: 256})
	// A handful of distinct programs so hits, misses and coalescing all
	// happen at once.
	programs := make([]string, 8)
	for i := range programs {
		programs[i] = strings.Replace(demoProgram, "const 8", fmt.Sprintf("const %d", 8+i), 1)
	}
	const goroutines = 16
	const perG = 20
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := CompileRequest{Program: programs[(g+i)%len(programs)]}
				status, resp, errResp := postCompile(t, ts.URL, req)
				if status != http.StatusOK {
					errs <- fmt.Sprintf("goroutine %d req %d: status %d (%+v)", g, i, status, errResp)
					return
				}
				if resp.Program == "" {
					errs <- fmt.Sprintf("goroutine %d req %d: empty schedule", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if ok := s.stats.ok.Value(); ok != goroutines*perG {
		t.Errorf("ok=%d, want %d", ok, goroutines*perG)
	}
	if s.stats.cacheHits.Value()+s.stats.coalesced.Value() == 0 {
		t.Error("no request ever reused a compilation across 320 posts of 8 programs")
	}
	if n := s.eng.CacheLen(); n > len(programs) {
		t.Errorf("%d cache entries for %d distinct programs", n, len(programs))
	}
}

// TestRegisterFileBounds: client-controlled register-file sizes are
// validated at the edge. regalloc builds O(Regs) state per block, so an
// unbounded value would let one cheap request force a multi-GB worker
// allocation — a fatal runtime OOM no panic boundary recovers.
func TestRegisterFileBounds(t *testing.T) {
	_, ts := startServer(t, Config{})
	cases := []struct {
		name string
		opts RequestOptions
		want int
	}{
		{"huge-regs", RequestOptions{Regs: 2000000000, SpillPool: 3}, http.StatusBadRequest},
		{"above-max", RequestOptions{Regs: MaxRegs + 1, SpillPool: 6}, http.StatusBadRequest},
		{"negative", RequestOptions{Regs: -8, SpillPool: -3}, http.StatusBadRequest},
		{"pool-too-small", RequestOptions{Regs: 32, SpillPool: 1}, http.StatusBadRequest},
		{"pool-swallows-regs", RequestOptions{Regs: 8, SpillPool: 8}, http.StatusBadRequest},
		{"at-max", RequestOptions{Regs: MaxRegs, SpillPool: 6}, http.StatusOK},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, _, errResp := postCompile(t, ts.URL, CompileRequest{Program: demoProgram, Options: c.opts})
			if status != c.want {
				t.Fatalf("status %d, want %d (%+v)", status, c.want, errResp)
			}
			if c.want == http.StatusBadRequest && errResp.Stage != "options" {
				t.Errorf("stage %q, want options", errResp.Stage)
			}
		})
	}
}

// TestDeadlineDegradedNotCached: a result degraded by the leader's
// wall-clock deadline is served to that request but must not be cached —
// the deadline is not part of the key, so a later request with a
// generous deadline would otherwise be stuck with the degraded schedule.
func TestDeadlineDegradedNotCached(t *testing.T) {
	s, ts := startServer(t, Config{})
	var calls atomic.Int64
	s.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
		n := calls.Add(1)
		br, err := compile.RunBlock(ctx, b, opts)
		if err != nil {
			return nil, err
		}
		if n == 1 {
			// Simulate the first compile blowing its deadline mid-ladder.
			br.Degradations = append(br.Degradations, compile.Event{
				Block: "body", Pass: 1, Stage: "weights",
				From: compile.RungPolicyPrefix + sched.PolicyBalanced, To: compile.RungFixedLat,
				Reason: "context deadline exceeded after 8192 units", Deadline: true,
			})
		}
		return br, nil
	}
	status, first, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	if status != http.StatusOK {
		t.Fatalf("degraded request status %d", status)
	}
	if len(first.Degradations) != 1 || !first.Degradations[0].Deadline {
		t.Fatalf("degradations %+v, want one deadline-flagged event", first.Degradations)
	}
	if n := s.eng.CacheLen(); n != 0 {
		t.Fatalf("deadline-degraded result left %d cache entries", n)
	}
	status, second, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	if status != http.StatusOK {
		t.Fatalf("second request status %d", status)
	}
	if second.Cached {
		t.Error("second request was served the deadline-degraded schedule from cache")
	}
	if len(second.Degradations) != 0 {
		t.Errorf("recompile still degraded: %+v", second.Degradations)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("ran %d compilations, want 2 (no reuse of the degraded result)", got)
	}
	// The clean recompile is cacheable as usual.
	if _, third, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram}); !third.Cached {
		t.Error("clean recompile was not cached")
	}
}

// TestCoalescedWaitBounded: a coalesced request's wait is bounded by its
// own clamped deadline, not the leader's — a 50ms client must not hang
// for up to the leader's 10s default. Its timeout must not fail the
// shared entry either.
func TestCoalescedWaitBounded(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	running := make(chan struct{}, 1)
	s.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
		select {
		case running <- struct{}{}:
		default:
		}
		<-gate
		return compile.RunBlock(ctx, b, opts)
	}
	leaderDone := make(chan int, 1)
	go func() {
		status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
		leaderDone <- status
	}()
	<-running // the leader is inside compileFn, holding the entry in flight

	start := time.Now()
	status, _, errResp := postCompile(t, ts.URL,
		CompileRequest{Program: demoProgram, TimeoutMillis: 50})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("coalesced request past its deadline got %d (%+v), want 503", status, errResp)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("coalesced request with a 50ms deadline waited %v", elapsed)
	}

	close(gate)
	if got := <-leaderDone; got != http.StatusOK {
		t.Fatalf("leader finished with %d after a waiter timed out", got)
	}
	if _, second, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram}); !second.Cached {
		t.Error("leader's result was not cached after a waiter timed out")
	}

	// A program that leads its first block and coalesces on a gated
	// leader for its second: leading one block must not lift the
	// deadline off the coalesced one.
	s2, ts2 := startServer(t, Config{Workers: 2})
	gate2 := make(chan struct{})
	s2.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
		if b.Label == "body" {
			select {
			case running <- struct{}{}:
			default:
			}
			<-gate2
		}
		return compile.RunBlock(ctx, b, opts)
	}
	go func() {
		status, _, _ := postCompile(t, ts2.URL, CompileRequest{Program: demoProgram})
		leaderDone <- status
	}()
	<-running
	mixed := "func mixed\n" + batchBlock("own", 7) + strings.TrimPrefix(demoProgram, "func demo\n")
	type answer struct {
		status  int
		elapsed time.Duration
	}
	answered := make(chan answer, 1)
	start = time.Now()
	go func() {
		status, _, _ := postCompile(t, ts2.URL, CompileRequest{Program: mixed, TimeoutMillis: 50})
		answered <- answer{status, time.Since(start)}
	}()
	select {
	case a := <-answered:
		if a.status != http.StatusServiceUnavailable {
			t.Errorf("leader+coalesced request past its deadline got %d after %v, want 503", a.status, a.elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Error("leader+coalesced request with a 50ms deadline still waiting after 5s")
	}
	close(gate2)
	if got := <-leaderDone; got != http.StatusOK {
		t.Fatalf("second leader finished with %d", got)
	}
}

// TestServerClose checks Close fails queued work instead of hanging it.
func TestServerClose(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, QueueDepth: 4, CacheCapacity: -1})
	gate := make(chan struct{})
	running := make(chan struct{}, 1)
	s.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
		select {
		case running <- struct{}{}:
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return compile.RunBlock(ctx, b, opts)
	}
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
			done <- status
		}()
	}
	<-running // worker busy; the second request is queued or about to be
	s.Close()
	close(gate)
	for i := 0; i < 2; i++ {
		select {
		case <-done:
			// 200 (in-flight finished under cancellation) and 503
			// (queued job failed at shutdown) are both acceptable; what
			// is not acceptable is hanging.
		case <-time.After(5 * time.Second):
			t.Fatal("request hung across server Close")
		}
	}
}
