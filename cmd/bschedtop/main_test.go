package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"bsched/internal/server"
)

// frameRow returns the rendered table row of node keyed by the header's
// column names. The self marker " *" is dropped so the columns line up.
func frameRow(t *testing.T, frame, node string) map[string]string {
	t.Helper()
	var header, row []string
	for _, line := range strings.Split(frame, "\n") {
		switch {
		case strings.HasPrefix(line, "NODE"):
			header = strings.Fields(line)
		case strings.HasPrefix(line, node+" "):
			row = strings.Fields(strings.Replace(line, node+" *", node, 1))
		}
	}
	if header == nil || len(row) < len(header) {
		t.Fatalf("no row for %s in frame:\n%s", node, frame)
	}
	cols := make(map[string]string, len(header))
	for i, name := range header {
		cols[name] = row[i]
	}
	return cols
}

// TestRenderFrame polls an in-process daemon that has served the demo
// program twice (every block a miss, then every block a hit) and checks
// the rendered node row and the totals line.
func TestRenderFrame(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	src, err := os.ReadFile("../../examples/ir/demo.ir")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(server.CompileRequest{Program: string(src)})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile: status %d", resp.StatusCode)
		}
	}

	fs, err := poll(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	render(&buf, fs, map[string]int64{"standalone": 0}, time.Second)
	frame := buf.String()

	if !strings.HasPrefix(frame, "bschedtop — fleet via standalone — 1/1 nodes up — ") {
		t.Errorf("title line:\n%s", frame)
	}
	row := frameRow(t, frame, "standalone")
	for col, want := range map[string]string{
		"UP": "up", "QPS": "2.0", "REQS": "2", "HIT%": "50.0",
		"QUEUE": "0/128", "SHED": "0", "BRKR": "closed",
	} {
		if row[col] != want {
			t.Errorf("%s = %q, want %q\n%s", col, row[col], want, frame)
		}
	}
	if p99, err := strconv.ParseFloat(row["P99(ms)"], 64); err != nil || p99 <= 0 {
		t.Errorf("P99(ms) = %q, want above 0\n%s", row["P99(ms)"], frame)
	}
	const totals = "fleet totals: 2 requests, 2 ok, 0 rejected, 2 block hits (mem 2 / disk 0 / peer 0), 0 sheds\n"
	if !strings.HasSuffix(frame, totals) {
		t.Errorf("totals line: want %q in\n%s", totals, frame)
	}
}

// TestRenderDownNode polls a node whose one peer's listener is closed.
// The fleet endpoint reports the peer unreachable with the transport
// error its /stats fetch met, and the frame shows the peer as a DOWN
// row carrying that error whole, beside the node that answered.
func TestRenderDownNode(t *testing.T) {
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	closed := listen()
	dead := "http://" + closed.Addr().String()
	closed.Close()
	ln := listen()
	self := "http://" + ln.Addr().String()
	s, err := server.New(server.Config{SelfURL: self, Peers: []string{dead}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	fs, err := poll(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var peerErr string
	for _, n := range fs.Nodes {
		if n.Node == dead {
			peerErr = n.Error
		}
	}
	if peerErr == "" {
		t.Fatalf("fleet stats carry no error for the closed peer: %+v", fs.Nodes)
	}
	var buf strings.Builder
	render(&buf, fs, map[string]int64{self: 0}, time.Second)
	frame := buf.String()
	if !strings.Contains(frame, "— 1/2 nodes up —") {
		t.Errorf("title line:\n%s", frame)
	}
	if row := frameRow(t, frame, self); row["UP"] != "up" {
		t.Errorf("answering node UP = %q\n%s", row["UP"], frame)
	}
	if row := frameRow(t, frame, dead); row["UP"] != "DOWN" || row["REQS"] != "-" {
		t.Errorf("unreachable node row %v\n%s", row, frame)
	}
	if !strings.Contains(frame, " "+peerErr+"\n") {
		t.Errorf("DOWN row lacks the error %q:\n%s", peerErr, frame)
	}
}
