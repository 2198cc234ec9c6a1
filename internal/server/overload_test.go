package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bsched/internal/admission"
	"bsched/internal/chaos"
	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/ir"
	"bsched/internal/loadgen"
)

// TestDeadlineInfeasibleAdmission: once a tier's cost estimate is warm,
// a block whose remaining deadline is below the estimate is refused at
// admission — 503 with a Retry-After, counted as deadline_infeasible —
// without reaching a worker.
func TestDeadlineInfeasibleAdmission(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1})
	var calls atomic.Int64
	s.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond)
		return compile.RunBlock(ctx, b, opts)
	}
	for i := range compile.EstimatorMinSamples {
		if status, _, errResp := postCompile(t, ts.URL, CompileRequest{Program: demoVariant(i)}); status != http.StatusOK {
			t.Fatalf("warm-up compile %d: status %d (%+v)", i, status, errResp)
		}
	}
	resp, raw := postRaw(t, ts.URL, CompileRequest{Program: demoVariant(compile.EstimatorMinSamples), TimeoutMillis: 1}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503\n%s", resp.StatusCode, raw)
	}
	var body ErrorResponse
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Error != engine.ErrInfeasible.Error() || body.RetryAfterSeconds != 1 || resp.Header.Get("Retry-After") != "1" {
		t.Errorf("body %+v, Retry-After %q; want %q with 1 s", body, resp.Header.Get("Retry-After"), engine.ErrInfeasible)
	}
	if n := calls.Load(); n != compile.EstimatorMinSamples {
		t.Errorf("%d compile calls, want the %d warm-ups only", n, compile.EstimatorMinSamples)
	}
	if n := metric(s, "bschedd_admission_total", "deadline_infeasible"); n != 1 {
		t.Errorf("deadline_infeasible admissions = %g, want 1", n)
	}
}

// demoVariant renders a distinct-but-similar program: same shape as
// demoProgram, different constant, so each index is its own cache key.
func demoVariant(i int) string {
	return fmt.Sprintf(`func demo%d
block body freq=100
  v0 = const %d
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
`, i, 8+i)
}

// postRaw sends one compile request and returns the raw response so
// callers can inspect headers.
func postRaw(t *testing.T, url string, req CompileRequest, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestOverloadGoodputUnderZipf is the headline overload acceptance
// test: calibrate single-priority capacity with an interactive-only
// open-loop run, then offer 2× that rate as a 50/50 interactive/batch
// Zipf(α=1.1) mix and require that (a) the server sheds honestly (503s
// with an adaptive Retry-After, no client-side drops or transport
// errors) and (b) interactive goodput stays ≥80% of the calibrated
// single-priority capacity.
func TestOverloadGoodputUnderZipf(t *testing.T) {
	const service = 15 * time.Millisecond
	// Interactive weight 9: batch is guaranteed 1/10 of service, so
	// interactive can hold ~90% of capacity — comfortably above the 80%
	// floor the test asserts, with margin for scheduling noise.
	mk := func() (*Server, string) {
		s, ts := startServer(t, Config{
			Workers:           2,
			CacheCapacity:     -1, // every request is a real leader
			InteractiveWeight: 9,
		})
		s.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
			time.Sleep(service)
			return compile.RunBlock(ctx, b, compile.Options{})
		}
		return s, ts.URL
	}

	programs := make([]string, 8)
	for i := range programs {
		programs[i] = demoVariant(i)
	}
	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 512,
		},
	}

	// Phase 1: calibration. Offer well above the theoretical capacity
	// (2 workers / 15ms ≈ 133/s) with interactive traffic only; the OK
	// rate under saturation IS the single-priority capacity.
	_, url1 := mk()
	cal, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:       url1,
		Rate:          300,
		Duration:      1500 * time.Millisecond,
		Concurrency:   512,
		Programs:      programs,
		ZipfS:         1.1,
		TimeoutMillis: 8000,
		Seed:          1,
		Client:        client,
	})
	if err != nil {
		t.Fatal(err)
	}
	capacity := float64(cal.Interactive.OK) / cal.ElapsedSeconds
	if capacity < 20 {
		t.Fatalf("calibrated capacity %.1f/s implausibly low (result %+v)", capacity, cal.Total())
	}

	// Phase 2: overload a fresh server at 2× the calibrated capacity
	// with a 50/50 priority mix.
	const overloadWindow = 2500 * time.Millisecond
	s2, url2 := mk()
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:       url2,
		Rate:          2 * capacity,
		Duration:      overloadWindow,
		Concurrency:   512,
		Programs:      programs,
		ZipfS:         1.1,
		BatchFraction: 0.5,
		TimeoutMillis: 8000,
		Seed:          2,
		Client:        client,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Total()
	t.Logf("calibrated capacity %.1f/s; overload: %+v (interactive %+v, batch %+v, max Retry-After %ds)",
		capacity, tot, res.Interactive, res.Batch, res.MaxRetryAfter)

	if res.Dropped != 0 {
		t.Errorf("%d client-side drops — the server, not the client, must shed", res.Dropped)
	}
	if tot.Errored != 0 {
		t.Errorf("%d transport/unexpected-status errors under overload", tot.Errored)
	}
	if tot.Shed == 0 {
		t.Error("offered 2× capacity but the server shed nothing")
	}
	if res.MaxRetryAfter < 1 || res.MaxRetryAfter > admission.MaxRetryAfterSeconds {
		t.Errorf("adaptive Retry-After %d outside [1, %d]", res.MaxRetryAfter, admission.MaxRetryAfterSeconds)
	}
	// Goodput floor: interactive completions over the arrival window
	// must be ≥ 80% of what the calibrated capacity could serve in that
	// window. (Counts, not OK/Elapsed: Elapsed runs until the *last*
	// response, and the post-arrival batch-backlog drain would dilute
	// the interactive rate with seconds in which no interactive work
	// was even offered.)
	wantOK := 0.8 * capacity * overloadWindow.Seconds()
	if float64(res.Interactive.OK) < wantOK {
		t.Errorf("interactive completions %d under overload, want ≥%.0f (80%% of single-priority capacity %.1f/s over %v)",
			res.Interactive.OK, wantOK, capacity, overloadWindow)
	}
	if s2.stats.shedSojourn.Value()+s2.stats.shedFull.Value() == 0 {
		t.Error("stats record no sheds")
	}
}

// TestPriorityNoStarvation floods the queue with interactive work and
// checks that batch requests still complete promptly: the weighted
// discipline guarantees batch ≥ 1/(weight+1) of the service rate.
func TestPriorityNoStarvation(t *testing.T) {
	s, ts := startServer(t, Config{
		Workers:       1,
		QueueDepth:    16,
		CacheCapacity: -1,
		CoDelTarget:   -1, // isolate the weighted discipline from shedding
	})
	s.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
		time.Sleep(5 * time.Millisecond)
		return compile.RunBlock(ctx, b, compile.Options{})
	}

	// Closed-loop interactive flood: 8 posters keep the interactive
	// class continuously backlogged without ever filling the queue.
	stop := make(chan struct{})
	var floodOK atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, _ := postRaw(t, ts.URL, CompileRequest{Program: demoProgram}, map[string]string{"X-Priority": "interactive"})
				if resp.StatusCode == http.StatusOK {
					floodOK.Add(1)
				}
			}
		}()
	}

	// Let the flood establish a standing interactive backlog (the only
	// work queued so far).
	deadline := time.Now().Add(2 * time.Second)
	for metric(s, "bschedd_queue_depth") < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := metric(s, "bschedd_queue_depth"); got < 4 {
		t.Fatalf("interactive backlog %g never established", got)
	}

	for i := 0; i < 3; i++ {
		start := time.Now()
		resp, raw := postRaw(t, ts.URL, CompileRequest{Program: demoProgram, Priority: "batch"}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch request %d starved: status %d\n%s", i, resp.StatusCode, raw)
		}
		// Weight 4 ⇒ batch is served within 5 dequeues ≈ 25ms of
		// service time; a whole second means starvation.
		if wait := time.Since(start); wait > time.Second {
			t.Errorf("batch request %d waited %v behind the interactive flood", i, wait)
		}
	}

	close(stop)
	wg.Wait()
	if floodOK.Load() == 0 {
		t.Error("interactive flood completed zero requests")
	}
}

// TestTenantQuotaExhaustRefill exhausts one tenant's token bucket over
// HTTP, checks the 429 carries honest quota headers and Retry-After,
// verifies an innocent tenant is untouched, then waits for refill and
// confirms service resumes. Counters must land in /stats and /metrics.
func TestTenantQuotaExhaustRefill(t *testing.T) {
	_, ts := startServer(t, Config{TenantRate: 2, TenantBurst: 2})

	// Warm the cache so quota requests are cheap cache hits.
	if status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram}); status != http.StatusOK {
		t.Fatalf("warmup status %d", status)
	}

	alice := map[string]string{"X-Tenant": "alice"}
	for i := 0; i < 2; i++ {
		resp, raw := postRaw(t, ts.URL, CompileRequest{Program: demoProgram}, alice)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("alice request %d within burst: status %d\n%s", i, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("X-RateLimit-Limit"); got != "2" {
			t.Errorf("X-RateLimit-Limit %q, want 2", got)
		}
	}
	resp, raw := postRaw(t, ts.URL, CompileRequest{Program: demoProgram}, alice)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over burst: status %d, want 429\n%s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-RateLimit-Remaining"); got != "0" {
		t.Errorf("429 X-RateLimit-Remaining %q, want 0", got)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > admission.MaxRetryAfterSeconds {
		t.Errorf("429 Retry-After %q outside [1, %d]", resp.Header.Get("Retry-After"), admission.MaxRetryAfterSeconds)
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(raw, &eresp); err != nil || eresp.RetryAfterSeconds != ra {
		t.Errorf("429 body retry_after_s %d doesn't echo header %d (%v)", eresp.RetryAfterSeconds, ra, err)
	}

	// Another tenant is isolated from alice's exhaustion.
	resp, raw = postRaw(t, ts.URL, CompileRequest{Program: demoProgram}, map[string]string{"X-Tenant": "bob"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob throttled by alice's bucket: status %d\n%s", resp.StatusCode, raw)
	}

	// Refill at 2 tokens/s: after ~1.2s alice is servable again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(300 * time.Millisecond)
		resp, _ = postRaw(t, ts.URL, CompileRequest{Program: demoProgram}, alice)
		if resp.StatusCode == http.StatusOK || time.Now().After(deadline) {
			break
		}
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice never refilled: status %d", resp.StatusCode)
	}

	fams := getStats(t, ts.URL)
	if v := statValue(fams, "bschedd_admission_total", "quota"); v < 1 {
		t.Errorf("quota rejections %g, want ≥1", v)
	}
	if v := statValue(fams, "bschedd_tenant_rejected_total", "alice"); v < 1 {
		t.Errorf("alice's rejections %g, want ≥1", v)
	}
	if req, rej := statValue(fams, "bschedd_tenant_requests_total", "bob"), statValue(fams, "bschedd_tenant_rejected_total", "bob"); req < 1 || rej != 0 {
		t.Errorf("bob's tenant counters: %g requests, %g rejected; want ≥1 and 0", req, rej)
	}
	if v := statValue(fams, "bschedd_quota_tenants"); v < 2 {
		t.Errorf("quota tenants %g, want ≥2", v)
	}
	metrics, _ := scrapeMetrics(t, ts.URL)
	if quota, alice := statValue(metrics, "bschedd_admission_total", "quota"),
		statValue(metrics, "bschedd_tenant_rejected_total", "alice"); quota < 1 || alice < 1 {
		t.Errorf("/metrics quota rejections %g, alice's %g; want >= 1 each", quota, alice)
	}
}

// TestTenantQuotaFractionalRate: the 429 names the sustained rate as
// configured, a fraction included, not truncated to an integer.
func TestTenantQuotaFractionalRate(t *testing.T) {
	_, ts := startServer(t, Config{TenantRate: 0.5})
	carol := map[string]string{"X-Tenant": "carol"}
	postRaw(t, ts.URL, CompileRequest{Program: demoProgram}, carol) // spends the one-token burst
	resp, raw := postRaw(t, ts.URL, CompileRequest{Program: demoProgram}, carol)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(raw), "(0.5 req/s sustained)") {
		t.Errorf("over quota at 0.5 req/s: status %d, body %s", resp.StatusCode, raw)
	}
}

// TestBreakerTripRecover injects disk faults (and slow compiles) under
// real HTTP traffic and watches the circuit breaker trip, reject while
// open, probe, and recover — with requests serving 200 from memory
// throughout (a sick disk must degrade the cache, not the service). The
// episode must be visible in /stats and /metrics.
func TestBreakerTripRecover(t *testing.T) {
	inj, err := chaos.Parse("disk-error:every=1,limit=4;slow-compile:every=1,delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := startServer(t, Config{
		Workers:          2,
		CacheDir:         t.TempDir(),
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		Chaos:            inj,
	})

	// Distinct programs keep cacheable writes flowing through the
	// write-behind flusher, where the injected faults land.
	post := func(i int) {
		t.Helper()
		resp, raw := postRaw(t, ts.URL, CompileRequest{Program: demoVariant(i)}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d got %d during disk faults — breaker must keep serving from memory\n%s",
				i, resp.StatusCode, raw)
		}
	}

	i := 0
	deadline := time.Now().Add(10 * time.Second)
	tripped := false
	for time.Now().Before(deadline) {
		post(i)
		i++
		if metric(s, "bschedd_breaker_events_total", "trip") >= 1 {
			tripped = true
		}
		// Recovered: faults exhausted, a probe succeeded, breaker closed.
		if tripped && inj.Fired(chaos.DiskError) >= 4 && s.eng.BreakerState() == admission.BreakerClosed {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	trips, ioErrors := metric(s, "bschedd_breaker_events_total", "trip"), metric(s, "bschedd_diskcache_io_errors_total")
	if !tripped {
		t.Fatalf("breaker never tripped after %d requests (io errors %g)", i, ioErrors)
	}
	if st := s.eng.BreakerState(); st != admission.BreakerClosed {
		t.Fatalf("breaker state %q after faults exhausted, want closed (trips %g, io errors %g)", st, trips, ioErrors)
	}
	if ioErrors < 2 {
		t.Errorf("disk I/O errors %g, want ≥2 (threshold that tripped)", ioErrors)
	}

	// Closed again: the next distinct compile must actually reach disk.
	writes := func() float64 { return metric(s, "bschedd_diskcache_events_total", "write") }
	start := writes()
	post(i)
	writeDeadline := time.Now().Add(5 * time.Second)
	for writes() <= start && time.Now().Before(writeDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := writes(); got <= start {
		t.Errorf("no disk write after recovery (writes %g)", got)
	}
	if inj.Fired(chaos.SlowCompile) == 0 {
		t.Error("slow-compile fault never fired")
	}

	if v := statValue(getStats(t, ts.URL), "bschedd_retry_after_seconds"); v < 1 {
		t.Errorf("/stats bschedd_retry_after_seconds = %g, want >= 1", v)
	}
	metrics, _ := scrapeMetrics(t, ts.URL)
	for _, series := range [][]string{
		{"bschedd_breaker_events_total", "trip"},
		{"bschedd_breaker_events_total", "recover"},
		{"bschedd_diskcache_io_errors_total"},
	} {
		if v := statValue(metrics, series[0], series[1:]...); v < 1 {
			t.Errorf("/metrics %q = %g, want >= 1", series, v)
		}
	}
}

// TestCoDelShedBeforeFull stalls the drain and checks the sojourn
// controller rejects a new arrival while the queue still has plenty of
// room — and that the shed is recorded in the queue stage
// histogram (sheds must not be invisible in latency observability).
func TestCoDelShedBeforeFull(t *testing.T) {
	s, ts := startServer(t, Config{
		Workers:       1,
		QueueDepth:    32,
		CacheCapacity: -1,
		CoDelTarget:   10 * time.Millisecond,
		CoDelInterval: 20 * time.Millisecond,
	})
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

	results := make(chan int, 3)
	post := func(i int) {
		status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoVariant(i)})
		results <- status
	}
	go post(0) // taken by the lone worker
	<-running
	go post(1) // parks at the head of the queue
	go post(2)
	deadline := time.Now().Add(2 * time.Second)
	for metric(s, "bschedd_queue_depth") < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := metric(s, "bschedd_queue_depth"); got != 2 {
		t.Fatalf("queue depth %g, want 2", got)
	}

	// Let the head's sojourn exceed target+interval (drain stalled).
	time.Sleep(60 * time.Millisecond)
	queueWait := s.stats.stages.With(engine.StageQueue)
	shedsBefore, waitsBefore := s.stats.shedSojourn.Value(), queueWait.Count()

	resp, raw := postRaw(t, ts.URL, CompileRequest{Program: demoVariant(3)}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("arrival into a stalled queue got %d, want 503 (CoDel shed)\n%s", resp.StatusCode, raw)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > admission.MaxRetryAfterSeconds {
		t.Errorf("shed Retry-After %q outside [1, %d]", resp.Header.Get("Retry-After"), admission.MaxRetryAfterSeconds)
	}

	if got := s.stats.shedSojourn.Value(); got != shedsBefore+1 {
		t.Errorf("sojourn sheds %d → %d, want +1", shedsBefore, got)
	}
	if got := s.stats.shedFull.Value(); got != 0 {
		t.Errorf("queue-full sheds %d — the queue was nowhere near its depth bound", got)
	}
	if depth, capacity := metric(s, "bschedd_queue_depth"), metric(s, "bschedd_queue_capacity"); depth >= capacity {
		t.Errorf("queue depth %g at capacity %g — shed was not 'before full'", depth, capacity)
	}
	if got := queueWait.Count(); got != waitsBefore+1 {
		t.Errorf("queue stage count %d → %d: shed requests must be recorded", waitsBefore, got)
	}

	close(gate)
	for i := 0; i < 3; i++ {
		if status := <-results; status != http.StatusOK {
			t.Errorf("accepted request finished with %d", status)
		}
	}
}

// TestRetryAfterBoundsAllPaths checks that every 503 path carries a
// Retry-After inside [1, MaxRetryAfterSeconds] and echoes it in the
// JSON body: the hard queue-full rejection and the coalesced-wait
// deadline expiry.
func TestRetryAfterBoundsAllPaths(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, QueueDepth: 1, CacheCapacity: -1, CoDelTarget: -1})
	gate := make(chan struct{})
	running := make(chan struct{}, 4)
	s.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
		running <- struct{}{}
		<-gate
		return compile.RunBlock(ctx, b, opts)
	}

	checkRA := func(resp *http.Response, raw []byte, path string) {
		t.Helper()
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 || ra > admission.MaxRetryAfterSeconds {
			t.Errorf("%s: Retry-After %q outside [1, %d]", path, resp.Header.Get("Retry-After"), admission.MaxRetryAfterSeconds)
		}
		var eresp ErrorResponse
		if err := json.Unmarshal(raw, &eresp); err != nil {
			t.Errorf("%s: bad 503 body: %v\n%s", path, err, raw)
		} else if eresp.RetryAfterSeconds != ra {
			t.Errorf("%s: body retry_after_s %d doesn't echo header %d", path, eresp.RetryAfterSeconds, ra)
		}
	}

	// Path 1: queue full. Fill the worker and the one queue slot.
	done := make(chan int, 2)
	go func() {
		status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoVariant(0)})
		done <- status
	}()
	<-running
	go func() {
		status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoVariant(1)})
		done <- status
	}()
	deadline := time.Now().Add(2 * time.Second)
	for metric(s, "bschedd_queue_depth") < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp, raw := postRaw(t, ts.URL, CompileRequest{Program: demoVariant(2)}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-full path: status %d, want 503\n%s", resp.StatusCode, raw)
	}
	checkRA(resp, raw, "queue-full")

	close(gate)
	for i := 0; i < 2; i++ {
		if status := <-done; status != http.StatusOK {
			t.Errorf("accepted request finished with %d", status)
		}
	}

	// Path 2: coalesced-wait deadline expiry. Needs caching on, so a
	// second request can coalesce onto the gated leader and time out.
	s2, ts2 := startServer(t, Config{Workers: 1})
	gate2 := make(chan struct{})
	running2 := make(chan struct{}, 1)
	s2.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
		select {
		case running2 <- struct{}{}:
		default:
		}
		<-gate2
		return compile.RunBlock(ctx, b, opts)
	}
	leaderDone := make(chan int, 1)
	go func() {
		status, _, _ := postCompile(t, ts2.URL, CompileRequest{Program: demoProgram})
		leaderDone <- status
	}()
	<-running2
	resp, raw = postRaw(t, ts2.URL, CompileRequest{Program: demoProgram, TimeoutMillis: 50}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("coalesced-wait path: status %d, want 503\n%s", resp.StatusCode, raw)
	}
	checkRA(resp, raw, "coalesced-wait")
	close(gate2)
	if status := <-leaderDone; status != http.StatusOK {
		t.Errorf("leader finished with %d after a waiter timed out", status)
	}
}
