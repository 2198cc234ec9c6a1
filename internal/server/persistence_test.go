package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/ir"
	"bsched/internal/sched"
)

// Server-level persistence tests: the disk layer itself is unit-tested
// in internal/engine; these drive it through the full HTTP stack.

// stripStamps zeroes the per-request stamp fields so responses served
// via different dispositions can be compared byte-for-byte.
func stripStamps(r *CompileResponse) []byte {
	c := *r
	c.Cached = false
	c.Coalesced = false
	c.ServiceMillis = 0
	raw, err := json.Marshal(&c)
	if err != nil {
		panic(err)
	}
	return raw
}

// newestSegment returns the path of the most recently created
// persistent-cache segment file in dir.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, engine.SegNamePrefix+"*"+engine.SegNameSuffix))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segment files in %s (err=%v)", dir, err)
	}
	var newest string
	for _, n := range names {
		if n > newest {
			newest = n
		}
	}
	return newest
}

// TestDiskCacheEquivalence is the differential proof of the cache/
// scheduler contract: for a corpus of programs, the response served by
// a cold compile, by a memory hit, and by a disk-warmed hit after a
// server restart must be byte-identical once the cached/service stamps
// are stripped.
func TestDiskCacheEquivalence(t *testing.T) {
	var corpus []CompileRequest
	for i := 0; i < 5; i++ {
		corpus = append(corpus, CompileRequest{
			Program: strings.Replace(demoProgram, "const 8", fmt.Sprintf("const %d", 8+16*i), 1),
		})
	}
	// Multi-block program and non-default (but cacheable) options.
	corpus = append(corpus,
		CompileRequest{Program: "func g\nblock a freq=10\n  v0 = const 1\n  v1 = load x[v0+0]\n  store y[v0+0], v1\nend\nblock b freq=90\n  v2 = const 2\n  v3 = load y[v2+0]\n  v4 = fadd v3, v3\n  store z[v2+0], v4\nend\n"},
		CompileRequest{Program: demoProgram, Options: RequestOptions{Scheduler: "traditional", TradLatency: 3}},
		CompileRequest{Program: demoProgram, Options: RequestOptions{Chances: "unionfind", Budget: TierSmall}},
	)

	// Disk records are block-granular: 5 demo variants (one block each)
	// + the two-block program + demo under two option sets = 9 records
	// for the corpus's 8 programs.
	const corpusBlocks = 9

	dir := t.TempDir()
	s1, ts1 := startServer(t, Config{CacheDir: dir})
	cold := make([]*CompileResponse, len(corpus))
	warm := make([]*CompileResponse, len(corpus))
	for i, req := range corpus {
		status, resp, errResp := postCompile(t, ts1.URL, req)
		if status != http.StatusOK {
			t.Fatalf("corpus[%d]: cold compile status %d (%+v)", i, status, errResp)
		}
		cold[i] = resp
		if _, warmResp, _ := postCompile(t, ts1.URL, req); warmResp == nil || !warmResp.Cached {
			t.Fatalf("corpus[%d]: second request was not a memory hit", i)
		} else {
			warm[i] = warmResp
		}
	}
	ts1.Close()
	s1.Close() // flushes the write-behind queue

	s2, ts2 := startServer(t, Config{CacheDir: dir})
	if n := metric(s2, "bschedd_diskcache_warm_entries"); n != corpusBlocks {
		t.Fatalf("warm entries %g, want %d", n, corpusBlocks)
	}
	for i, req := range corpus {
		status, disk, errResp := postCompile(t, ts2.URL, req)
		if status != http.StatusOK {
			t.Fatalf("corpus[%d]: disk-warmed status %d (%+v)", i, status, errResp)
		}
		if !disk.Cached {
			t.Errorf("corpus[%d]: restarted server recompiled instead of serving from disk", i)
		}
		c, w, dk := stripStamps(cold[i]), stripStamps(warm[i]), stripStamps(disk)
		if !bytes.Equal(c, w) {
			t.Errorf("corpus[%d]: memory hit differs from cold compile:\n%s\n%s", i, c, w)
		}
		if !bytes.Equal(c, dk) {
			t.Errorf("corpus[%d]: disk-warmed response differs from cold compile:\n%s\n%s", i, c, dk)
		}
	}
	if hits := metric(s2, "bschedd_diskcache_events_total", "hit"); hits != corpusBlocks {
		t.Errorf("disk hits %g, want %d", hits, corpusBlocks)
	}
}

// TestDiskCacheWarmRestart is the end-to-end warm-restart check at the
// server level: compile, restart on the same directory, and the next
// identical request must be a disk hit — visible in /stats
// (bschedd_diskcache_events_total{event="hit"} >= 1) and in the
// request's trace (a disk-hit span event).
func TestDiskCacheWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startServer(t, Config{CacheDir: dir})
	if status, _, _ := postCompile(t, ts1.URL, CompileRequest{Program: demoProgram}); status != http.StatusOK {
		t.Fatal("seed compile failed")
	}
	ts1.Close()
	s1.Close()

	_, ts2 := startServer(t, Config{CacheDir: dir})
	body, _ := json.Marshal(CompileRequest{Program: demoProgram})
	hresp, err := http.Post(ts2.URL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("restarted compile: %s\n%s", hresp.Status, raw)
	}
	var resp CompileResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("restarted server did not mark the disk-served response cached")
	}

	// /stats must show the disk hit.
	fams := getStats(t, ts2.URL)
	if v := statValue(fams, "bschedd_diskcache_events_total", "hit"); v < 1 {
		t.Errorf("stats disk hits = %g, want >= 1", v)
	}
	if v := statValue(fams, "bschedd_cache_events_total", "miss"); v != 0 {
		t.Errorf("disk hit also counted as a compile miss (misses=%g)", v)
	}

	// The trace must carry the disk-hit event on the root span.
	traceID := hresp.Header.Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("no X-Trace-ID on the disk-served response")
	}
	tresp, err := http.Get(ts2.URL + "/v1/traces/" + traceID + "?format=tree")
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %s\n%s", tresp.Status, tree)
	}
	if !strings.Contains(string(tree), `"disk-hit"`) {
		t.Errorf("trace %s has no disk-hit event:\n%s", traceID, tree)
	}
	if !strings.Contains(string(tree), `"name":"disk"`) {
		t.Errorf("trace %s has no disk span:\n%s", traceID, tree)
	}

	// A second identical request is now a plain memory hit: the disk
	// serve warmed the in-memory cache.
	_, again, _ := postCompile(t, ts2.URL, CompileRequest{Program: demoProgram})
	if again == nil || !again.Cached {
		t.Error("request after the disk hit was not a memory hit")
	}
}

// TestDiskCacheDeadlineDegradedNotPersisted: the persistent layer obeys
// the same cacheability rule as memory — a deadline-degraded schedule
// must not survive a restart.
func TestDiskCacheDeadlineDegradedNotPersisted(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startServer(t, Config{CacheDir: dir})
	s1.compileFn = func(ctx context.Context, b *ir.Block, opts compile.Options) (*compile.BlockResult, error) {
		br, err := compile.RunBlock(ctx, b, opts)
		if err != nil {
			return nil, err
		}
		br.Degradations = append(br.Degradations, compile.Event{
			Block: "body", Pass: 1, Stage: "weights",
			From: compile.RungPolicyPrefix + sched.PolicyBalanced, To: compile.RungFixedLat,
			Reason: "context deadline exceeded after 8192 units", Deadline: true,
		})
		return br, nil
	}
	status, first, _ := postCompile(t, ts1.URL, CompileRequest{Program: demoProgram})
	if status != http.StatusOK || len(first.Degradations) != 1 {
		t.Fatalf("degraded compile: status %d, degradations %+v", status, first)
	}
	ts1.Close()
	s1.Close()

	s2, _ := startServer(t, Config{CacheDir: dir})
	if n := metric(s2, "bschedd_diskcache_warm_entries"); n != 0 {
		t.Errorf("deadline-degraded schedule was persisted (%g warm entries)", n)
	}
}

// TestDiskCacheCorruptOnDiskNeverServed corrupts a record *after* the
// index was built (between restarts) and checks the read path's
// checksum catches it: the request recompiles instead of serving the
// damaged schedule.
func TestDiskCacheCorruptOnDiskNeverServed(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startServer(t, Config{CacheDir: dir})
	status, clean, _ := postCompile(t, ts1.URL, CompileRequest{Program: demoProgram})
	if status != http.StatusOK {
		t.Fatal("seed compile failed")
	}
	ts1.Close()
	s1.Close()

	// Flip one byte inside the record body (past header and key, i.e. in
	// the JSON payload region).
	seg := newestSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[engine.SegHeaderLen+engine.RecHeaderLen+engine.RecBodyPrefixLen+10] ^= 0x08
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := startServer(t, Config{CacheDir: dir})
	// Replay already rejects the record, so this is belt (replay CRC) and
	// braces (read-path CRC): either way the served schedule must be a
	// fresh, correct compile, never the damaged bytes.
	status, resp, _ := postCompile(t, ts2.URL, CompileRequest{Program: demoProgram})
	if status != http.StatusOK {
		t.Fatalf("compile after corruption: status %d", status)
	}
	if resp.Cached {
		t.Error("corrupted record was served as a cache hit")
	}
	if resp.Program != clean.Program {
		t.Error("recompile after corruption produced a different schedule")
	}
	if metric(s2, "bschedd_diskcache_corrupt_records_total") == 0 {
		t.Error("corruption was not counted")
	}
}
