package bsched

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startDaemon launches a freshly built bschedd on an ephemeral port and
// returns its base URL plus a channel that yields the exit error after
// the process ends. The daemon prints its bound address on stdout.
func startDaemon(t *testing.T, args ...string) (*exec.Cmd, string, <-chan error) {
	t.Helper()
	bin := buildTool(t, "cmd/bschedd")
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	sc := bufio.NewScanner(stdout)
	addrc := make(chan string, 1)
	linec := make(chan string, 16)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "bschedd: listening on "); ok {
				addrc <- rest
			} else {
				linec <- line
			}
		}
		close(linec)
	}()
	exitc := make(chan error, 1)
	go func() { exitc <- cmd.Wait() }()

	select {
	case addr := <-addrc:
		return cmd, "http://" + addr, exitc
	case err := <-exitc:
		t.Fatalf("bschedd exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("bschedd did not report a listen address")
	}
	panic("unreachable")
}

type daemonResponse struct {
	Program     string `json:"program"`
	Blocks      []any  `json:"blocks"`
	Fingerprint string `json:"fingerprint"`
	Cached      bool   `json:"cached"`
}

func postProgram(t *testing.T, base, program string) daemonResponse {
	t.Helper()
	body, err := json.Marshal(map[string]any{"program": program})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/compile: %s\n%s", resp.Status, raw)
	}
	var out daemonResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode: %v\n%s", err, raw)
	}
	return out
}

// TestBscheddDaemon is the CLI integration test of the compilation
// service: start the daemon on a random port, POST the example program,
// verify a well-formed response and a cache hit on the identical second
// POST, then check SIGTERM shuts it down cleanly.
func TestBscheddDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	src, err := os.ReadFile("examples/ir/demo.ir")
	if err != nil {
		t.Fatal(err)
	}
	cmd, base, exitc := startDaemon(t)

	// Liveness first.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", hresp.Status)
	}

	cold := postProgram(t, base, string(src))
	if cold.Cached {
		t.Error("first POST claims to be cached")
	}
	if len(cold.Blocks) != 2 || cold.Program == "" || len(cold.Fingerprint) != 16 {
		t.Errorf("malformed response: %d blocks, fingerprint %q", len(cold.Blocks), cold.Fingerprint)
	}
	if !strings.Contains(cold.Program, "block body") || !strings.Contains(cold.Program, "block walk") {
		t.Errorf("scheduled program lost its blocks:\n%s", cold.Program)
	}

	warm := postProgram(t, base, string(src))
	if !warm.Cached {
		t.Error("identical second POST was not a cache hit")
	}
	if warm.Program != cold.Program {
		t.Error("cached schedule differs from cold schedule")
	}

	// Stats must agree with what just happened.
	sresp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Requests  int64 `json:"requests"`
		CacheHits int64 `json:"cache_hits"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 2 || stats.CacheHits != 1 {
		t.Errorf("stats requests=%d hits=%d, want 2/1", stats.Requests, stats.CacheHits)
	}

	// Clean shutdown on SIGTERM: exit code 0, promptly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exitc:
		if err != nil {
			t.Errorf("SIGTERM exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit within 10s of SIGTERM")
	}
}

// TestBscheddWarmRestart is the ISSUE's acceptance check for the
// persistent cache, against the real binary: compile under -cache-dir,
// SIGTERM, restart on the same directory, and the previously compiled
// program must come back as a hit — visible in the response (cached),
// in /stats (disk_hits >= 1) and in the request's trace (a disk-hit
// span event).
func TestBscheddWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	src, err := os.ReadFile("examples/ir/demo.ir")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	cmd1, base1, exitc1 := startDaemon(t, "-cache-dir", dir)
	if cold := postProgram(t, base1, string(src)); cold.Cached {
		t.Error("first POST claims to be cached")
	}
	if err := cmd1.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exitc1:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit within 10s of SIGTERM")
	}

	_, base2, _ := startDaemon(t, "-cache-dir", dir)
	body, err := json.Marshal(map[string]any{"program": string(src)})
	if err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Post(base2+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("restarted POST /v1/compile: %s\n%s", hresp.Status, raw)
	}
	var warm daemonResponse
	if err := json.Unmarshal(raw, &warm); err != nil {
		t.Fatalf("decode: %v\n%s", err, raw)
	}
	if !warm.Cached {
		t.Error("restarted daemon recompiled instead of serving from the persistent cache")
	}

	sresp, err := http.Get(base2 + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		DiskHits        int64 `json:"disk_hits"`
		DiskWarmEntries int   `json:"disk_warm_entries"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DiskHits < 1 {
		t.Errorf("stats disk_hits = %d, want >= 1", stats.DiskHits)
	}
	if stats.DiskWarmEntries < 1 {
		t.Errorf("stats disk_warm_entries = %d, want >= 1", stats.DiskWarmEntries)
	}

	traceID := hresp.Header.Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("no X-Trace-ID on the disk-served response")
	}
	tresp, err := http.Get(base2 + "/v1/traces/" + traceID + "?format=tree")
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
}

// TestBscheddRejectsBadConfig: a daemon configuration the server cannot
// honor fails startup — a non-zero exit before the listen line, with
// an error naming the problem — rather than serving requests it will
// then refuse.
func TestBscheddRejectsBadConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/bschedd")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown-policy", []string{"-policy", "bogus"}, `unknown policy "bogus"`},
		{"peers-without-node-id", []string{"-peers", "http://127.0.0.1:1"}, "advertised URL"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			args := append([]string{"-addr", "127.0.0.1:0", "-log-format", "none"}, tc.args...)
			out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
			if err == nil || ctx.Err() != nil {
				t.Fatalf("bschedd %v: err %v (context %v), want a prompt non-zero exit\n%s", tc.args, err, ctx.Err(), out)
			}
			if strings.Contains(string(out), "listening on") {
				t.Errorf("bschedd %v bound a listener before failing:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("bschedd %v error does not name the problem (want %q):\n%s", tc.args, tc.want, out)
			}
		})
	}
}
