package server

import (
	"bytes"
	"context"
	"encoding/json"
	stdflag "flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bsched/internal/chaos"
	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/ir"
	"bsched/internal/obs"
)

var identityOut = stdflag.String("identity-out", "", "directory TestIdentityDump writes its per-phase JSON to")

// identityPorts are the fleet phase's fixed loopback ports: ring
// placement hashes the nodes' URLs, so two trees place every key alike
// only on the same URLs. They sit below the ephemeral range (Linux
// hands out 32768–60999), where the earlier phases' client connections
// could hold them.
var identityPorts = [2]int{27311, 27312}

// TestIdentityDump drives one fixed script through four daemon phases
// and writes each phase's observable answers as canonical JSON, one file
// per phase, under -identity-out. It asserts nothing: it is the harness
// for showing that a refactor changes no answer. Run it in two trees
// (the file builds in either) and diff the directories:
//
//	go test ./internal/server -run '^TestIdentityDump$' -count=1 -identity-out /abs/dir
//
// The phases: a fresh cache directory, with one wrong-method request
// per route and a read of the retired GET /v1/peer/trace/{id}; a
// restart on it; a disk-error breaker that trips and recovers; a
// two-node fleet with a probe miss and its offer, a peer hit, a lookup
// held on a gated compile, a stitched trace, and the fleet view with
// one peer stopped. Each file holds every request's status, Allow and
// Content-Type headers, body (service_ms cleared, batch frames sorted),
// log line and trace (span name multiset, root events and attributes,
// status, retention class), then /stats, the parsed /metrics, /healthz
// and /v1/fleet/stats.
// Masked as run-to-run noise: the _seconds histograms' buckets and sums,
// bschedd_retry_after_seconds, bschedd_uptime_seconds, go_*,
// bschedd_traces_retained, and every id, time and duration.
func TestIdentityDump(t *testing.T) {
	if *identityOut == "" {
		t.Skip("writes its dump only with -identity-out DIR")
	}
	if err := os.MkdirAll(*identityOut, 0o755); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	t.Run("1-fresh", func(t *testing.T) { identityFresh(t, dir) })
	t.Run("2-restart", func(t *testing.T) { identityRestart(t, dir) })
	t.Run("3-breaker", identityBreaker)
	t.Run("4-fleet", identityFleet)
}

// idNode is one daemon under the harness, with its log captured.
type idNode struct {
	s   *Server
	ts  *httptest.Server
	url string
	log *syncWriter
}

// startIDNode starts a daemon that retains every trace (so retention is
// a pure function of the request) and logs JSON. A non-nil listener
// fixes its address.
func startIDNode(t *testing.T, cfg Config, ln net.Listener) *idNode {
	t.Helper()
	n := &idNode{log: &syncWriter{b: &strings.Builder{}}}
	cfg.TraceCapacity, cfg.TraceSampleEvery = 4096, 1
	cfg.Logger = obs.NewLogger(n.log, obs.FormatJSON)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.s = s
	n.ts = httptest.NewUnstartedServer(s.Handler())
	if ln != nil {
		n.ts.Listener.Close()
		n.ts.Listener = ln
	}
	n.ts.Start()
	n.url = n.ts.URL
	return n
}

// stop closes the node's listener and daemon.
func (n *idNode) stop() {
	n.ts.Close()
	n.s.Close()
}

// idExchange is one request of the script and its canonical answer.
type idExchange struct {
	Name    string            `json:"name"`
	Node    int               `json:"node,omitempty"`
	Request string            `json:"request"`
	Status  int               `json:"status"`
	Headers map[string]string `json:"headers,omitempty"`
	Body    any               `json:"body"`
	Log     map[string]any    `json:"log,omitempty"`
	Trace   *idTrace          `json:"trace,omitempty"`

	reqID, traceID string
	node           *idNode
}

// idTrace is a trace with its ids and times masked.
type idTrace struct {
	Name      string            `json:"name"`
	Status    string            `json:"status"`
	Retention string            `json:"retention"`
	Degraded  bool              `json:"degraded,omitempty"`
	Remote    bool              `json:"remote,omitempty"`
	Spans     map[string]int    `json:"spans"`
	Events    []string          `json:"root_events,omitempty"`
	Attrs     map[string]string `json:"root_attrs,omitempty"`
}

// idPhase accumulates one phase's dump.
type idPhase struct {
	t     *testing.T
	nodes []*idNode
	ex    []*idExchange
	out   map[string]any
}

func newIDPhase(t *testing.T, nodes ...*idNode) *idPhase {
	return &idPhase{t: t, nodes: nodes, out: map[string]any{}}
}

// do sends one request to node i and records its canonical answer.
func (p *idPhase) do(name string, i int, method, path, body string) *idExchange {
	p.t.Helper()
	n := p.nodes[i]
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, n.url+path, rd)
	if err != nil {
		p.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		p.t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		p.t.Fatal(err)
	}
	ex := &idExchange{Name: name, Node: i, Request: method + " " + maskPath(path), Status: resp.StatusCode,
		Body: canonBody(resp.Header.Get("Content-Type"), raw), node: n,
		reqID: resp.Header.Get("X-Request-ID"), traceID: resp.Header.Get("X-Trace-ID")}
	if path == "/stats" || path == "/metrics" {
		// The registry as JSON or as text; either way its timings vary.
		var fams []obs.FamilySnapshot
		if err := json.Unmarshal(raw, &fams); err != nil {
			if fams, err = obs.ParseText(bytes.NewReader(raw)); err != nil {
				p.t.Fatalf("%s %s: %v", method, path, err)
			}
		}
		ex.Body = maskFamilies(fams)
	}
	for _, h := range []string{"Allow", "Content-Type"} {
		if v := resp.Header.Get(h); v != "" {
			if ex.Headers == nil {
				ex.Headers = map[string]string{}
			}
			ex.Headers[h] = v
		}
	}
	p.ex = append(p.ex, ex)
	return ex
}

// compile posts one /v1/compile request.
func (p *idPhase) compile(name string, i int, req CompileRequest) *idExchange {
	p.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		p.t.Fatal(err)
	}
	return p.do(name, i, http.MethodPost, "/v1/compile", string(body))
}

// stitch records node 0's ?fleet=1 tree of trace id, each fragment
// masked like any trace.
func (p *idPhase) stitch(name, id string) {
	p.t.Helper()
	ex := p.do(name, 0, http.MethodGet, "/v1/traces/"+id+"?fleet=1&format=tree", "")
	raw, _ := json.Marshal(ex.Body)
	var tree struct {
		Nodes     []string        `json:"nodes"`
		Fragments []obs.NodeTrace `json:"fragments"`
	}
	if err := json.Unmarshal(raw, &tree); err != nil {
		p.t.Fatal(err)
	}
	frags := make([]map[string]any, len(tree.Fragments))
	for i, f := range tree.Fragments {
		frags[i] = map[string]any{"node": f.Node, "trace": summarizeTrace(f.View)}
	}
	ex.Body = map[string]any{"nodes": tree.Nodes, "fragments": frags}
}

// state records node i's /stats, parsed /metrics, /healthz and
// /v1/fleet/stats under key.
func (p *idPhase) state(key string, i int) {
	p.t.Helper()
	n := p.nodes[i]
	var stats []obs.FamilySnapshot
	getJSON(p.t, n.url+"/stats", &stats)
	fams, _ := scrapeMetrics(p.t, n.url)
	var health map[string]any
	getJSON(p.t, n.url+"/healthz", &health)
	delete(health, "uptime_s")
	var fleet FleetStats
	getJSON(p.t, n.url+"/v1/fleet/stats", &fleet)
	for j := range fleet.Nodes {
		fleet.Nodes[j].Families = maskFamilies(fleet.Nodes[j].Families)
	}
	fleet.Totals = maskFamilies(fleet.Totals)
	p.out[key] = map[string]any{
		"stats": maskFamilies(stats), "metrics": maskFamilies(fams), "healthz": health, "fleet_stats": fleet,
	}
}

// write attaches each exchange's log line and trace and writes the
// phase's file.
func (p *idPhase) write(name string) {
	p.t.Helper()
	logs := map[*idNode]map[string]map[string]any{}
	for _, n := range p.nodes {
		logs[n] = parseIDLog(p.t, n.log.String())
	}
	for _, ex := range p.ex {
		ex.Log = logs[ex.node][ex.reqID]
		ex.Trace = traceOf(p.t, ex.node, ex.traceID)
	}
	// The peer protocol's own requests (probes and offers between the
	// nodes) are logged too; the fan-out's fetches are not kept, since
	// what they fetch is in the fleet answers.
	var peer []string
	for i, n := range p.nodes {
		for id, kv := range logs[n] {
			if path, _ := kv["path"].(string); strings.HasPrefix(path, "/v1/peer/lookup/") || strings.HasPrefix(path, "/v1/peer/offer/") {
				if !p.own(id) {
					raw, _ := json.Marshal(kv)
					peer = append(peer, fmt.Sprintf("node%d %s", i, raw))
				}
			}
		}
	}
	sort.Strings(peer)
	p.out["requests"] = p.ex
	p.out["peer_log"] = peer
	raw, err := json.MarshalIndent(p.out, "", "  ")
	if err != nil {
		p.t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(*identityOut, name+".json"), append(raw, '\n'), 0o644); err != nil {
		p.t.Fatal(err)
	}
}

// own reports whether a request id is one of the script's requests.
func (p *idPhase) own(id string) bool {
	for _, ex := range p.ex {
		if ex.reqID == id {
			return true
		}
	}
	return false
}

// parseIDLog indexes a JSON access log by request id, with the fields
// that vary run to run removed.
func parseIDLog(t *testing.T, text string) map[string]map[string]any {
	t.Helper()
	out := map[string]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		var kv map[string]any
		if err := json.Unmarshal([]byte(line), &kv); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if kv["event"] != "http" {
			continue
		}
		id, _ := kv["id"].(string)
		for _, k := range []string{"id", "ts", "dur_ms", "bytes", "trace"} {
			delete(kv, k)
		}
		if p, ok := kv["path"].(string); ok {
			kv["path"] = maskPath(p)
		}
		out[id] = kv
	}
	return out
}

// traceOf reads a retained trace in-process and masks it, waiting for
// the middleware, which files a trace after the response is written.
func traceOf(t *testing.T, n *idNode, id string) *idTrace {
	t.Helper()
	tid, ok := obs.ParseTraceID(id)
	if !ok {
		return nil
	}
	store := n.s.tracer.Store()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if tr, ok := store.Get(tid); ok {
			out := summarizeTrace(tr.View())
			for _, e := range store.List() {
				if e.ID == id {
					out.Retention = e.Retention
				}
			}
			return out
		}
		if time.Now().After(deadline) {
			return &idTrace{Retention: "not-retained"}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// summarizeTrace masks a trace view down to its span-name multiset and
// its root's events and attributes.
func summarizeTrace(v obs.TraceView) *idTrace {
	out := &idTrace{Name: maskSpan(v.Name), Status: v.Status, Degraded: v.Degraded, Remote: v.Remote, Spans: map[string]int{}}
	for i, sp := range v.Spans {
		out.Spans[maskSpan(sp.Name)]++
		if i > 0 {
			continue
		}
		for _, e := range sp.Events {
			out.Events = append(out.Events, e.Name)
		}
		for _, a := range sp.Attrs {
			if out.Attrs == nil {
				out.Attrs = map[string]string{}
			}
			out.Attrs[a.Key] = a.Value
		}
	}
	return out
}

// maskSpan masks the trace id in a root span's name, "METHOD path".
func maskSpan(name string) string {
	method, path, ok := strings.Cut(name, " ")
	if !ok {
		return name
	}
	return method + " " + maskPath(path)
}

// maskPath replaces a trace id in a request path.
func maskPath(p string) string {
	for _, prefix := range []string{"/v1/traces/", "/v1/peer/trace/"} {
		if rest, ok := strings.CutPrefix(p, prefix); ok {
			id, query, _ := strings.Cut(rest, "?")
			if _, ok := obs.ParseTraceID(id); ok {
				id = "{id}"
			}
			if query != "" {
				query = "?" + query
			}
			return prefix + id + query
		}
	}
	return p
}

// canonBody decodes a response body: JSON with service_ms cleared,
// NDJSON as its sorted lines, anything else as text.
func canonBody(contentType string, raw []byte) any {
	switch {
	case strings.HasPrefix(contentType, "application/x-ndjson"):
		var lines []string
		for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			var v any
			if json.Unmarshal([]byte(l), &v) != nil {
				lines = append(lines, l)
				continue
			}
			b, _ := json.Marshal(clearVolatile(v))
			lines = append(lines, string(b))
		}
		sort.Strings(lines)
		return lines
	case strings.HasPrefix(contentType, "application/json"):
		var v any
		if json.Unmarshal(raw, &v) == nil {
			return clearVolatile(v)
		}
	}
	return string(raw)
}

// clearVolatile removes the timing fields of a decoded JSON body.
func clearVolatile(v any) any {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "service_ms")
		delete(x, "uptime_s")
		for k, e := range x {
			x[k] = clearVolatile(e)
		}
	case []any:
		for i, e := range x {
			x[i] = clearVolatile(e)
		}
	}
	return v
}

// maskFamilies zeroes what varies run to run in a metric snapshot.
func maskFamilies(fams []obs.FamilySnapshot) []obs.FamilySnapshot {
	out := make([]obs.FamilySnapshot, len(fams))
	for i, f := range fams {
		series := make([]obs.SeriesSnapshot, len(f.Series))
		copy(series, f.Series)
		for j := range series {
			switch {
			case strings.HasPrefix(f.Name, "go_"), f.Name == "bschedd_uptime_seconds",
				f.Name == "bschedd_retry_after_seconds", f.Name == "bschedd_traces_retained":
				series[j].Value = 0
			case f.Kind == obs.KindHistogram && strings.HasSuffix(f.Name, "_seconds"):
				series[j].BucketCounts, series[j].Sum = nil, 0
			}
		}
		f.Series = series
		out[i] = f
	}
	return out
}

// blockKey is the cache key of a one-block program under default
// options.
func blockKey(t *testing.T, program string) engine.Key {
	t.Helper()
	prog, err := ir.Parse(program)
	if err != nil {
		t.Fatal(err)
	}
	return engine.Key{Block: prog.Funcs[0].Blocks[0].Fingerprint(), Opts: (&RequestOptions{}).fingerprint()}
}

// wrongMethods sends each route a method it does not serve.
func (p *idPhase) wrongMethods() {
	absent := strings.Repeat("0", 31) + "1"
	for _, r := range []struct{ method, path string }{
		{http.MethodGet, "/v1/compile"},
		{http.MethodGet, "/v1/compile/batch"},
		{http.MethodPost, "/v1/traces"},
		{http.MethodPost, "/v1/traces/" + absent},
		{http.MethodPost, "/v1/peer/lookup/" + (engine.Key{Block: 1, Opts: 2}).String()},
		{http.MethodGet, "/v1/peer/offer/" + (engine.Key{Block: 1, Opts: 2}).String()},
		{http.MethodPost, "/v1/peer/trace/" + absent},
		{http.MethodPost, "/v1/fleet/stats"},
		{http.MethodPost, "/v1/fleet/metrics"},
		{http.MethodPost, "/v1/profiles"},
		{http.MethodPost, "/v1/profiles/x"},
		{http.MethodDelete, "/healthz"},
		{http.MethodPost, "/stats"},
		{http.MethodPost, "/metrics"},
	} {
		p.do("wrong-method", 0, r.method, r.path, "")
	}
}

// identityPrograms are the fresh phase's cacheable compiles, which the
// restart replays from disk.
func identityPrograms() []CompileRequest {
	return []CompileRequest{
		{Program: demoProgram},
		{Program: demoVariant(1)},
		{Program: demoVariant(2)},
		{Program: demoProgram, Options: RequestOptions{Budget: TierSmall}},
		{Program: demoProgram, Options: RequestOptions{Policy: "auto"}},
		{Program: widePolicyProgram(600), Options: RequestOptions{Budget: TierSmall}},
	}
}

func identityFresh(t *testing.T, dir string) {
	n := startIDNode(t, Config{Workers: 2, CacheDir: dir}, nil)
	p := newIDPhase(t, n)
	progs := identityPrograms()
	p.compile("demo", 0, progs[0])
	p.compile("demo-again", 0, progs[0])
	p.compile("variant-1", 0, progs[1])
	p.compile("variant-2", 0, progs[2])
	p.compile("variant-2-again", 0, progs[2])
	p.compile("small", 0, progs[3])
	p.compile("auto", 0, progs[4])
	p.compile("degrades", 0, progs[5])
	p.compile("unparseable", 0, CompileRequest{Program: "not ir"})
	p.compile("regalloc-error", 0, CompileRequest{Program: hardErrorProgram})
	batch, _ := json.Marshal(BatchRequest{Programs: []CompileRequest{
		{Program: demoProgram}, {Program: demoVariant(3)}, {Program: demoVariant(4)}, {Program: demoVariant(1)},
	}})
	p.do("batch", 0, http.MethodPost, "/v1/compile/batch", string(batch))
	p.do("lookup-hit", 0, http.MethodGet, "/v1/peer/lookup/"+blockKey(t, demoProgram).String(), "")
	p.do("lookup-miss", 0, http.MethodGet, "/v1/peer/lookup/"+(engine.Key{Block: 0xdeadbeef, Opts: 1}).String(), "")
	p.do("trace-absent", 0, http.MethodGet, "/v1/traces/"+strings.Repeat("0", 31)+"1", "")
	p.do("peer-trace-absent", 0, http.MethodGet, "/v1/peer/trace/"+strings.Repeat("0", 31)+"1", "")
	p.wrongMethods()
	p.state("node0", 0)
	p.write("1-fresh")
	n.stop()
}

func identityRestart(t *testing.T, dir string) {
	n := startIDNode(t, Config{Workers: 2, CacheDir: dir}, nil)
	p := newIDPhase(t, n)
	// A key only the disk holds, read by a peer lookup first.
	p.do("lookup-disk", 0, http.MethodGet, "/v1/peer/lookup/"+blockKey(t, demoVariant(4)).String(), "")
	for i, req := range identityPrograms() {
		p.compile(fmt.Sprintf("replay-%d", i), 0, req)
	}
	p.compile("variant-3", 0, CompileRequest{Program: demoVariant(3)})
	p.compile("variant-4", 0, CompileRequest{Program: demoVariant(4)})
	p.compile("variant-5-new", 0, CompileRequest{Program: demoVariant(5)})
	p.state("node0", 0)
	p.write("2-restart")
	n.stop()
}

func identityBreaker(t *testing.T) {
	inj, err := chaos.Parse("disk-error:every=1,limit=4")
	if err != nil {
		t.Fatal(err)
	}
	n := startIDNode(t, Config{Workers: 2, CacheDir: t.TempDir(), Chaos: inj,
		BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
		ProfileDir: t.TempDir(), ProfileInterval: -1, ProfileCPUDuration: 20 * time.Millisecond}, nil)
	defer n.stop()
	p := newIDPhase(t, n)
	// One write at a time, each past the cooldown: fail, fail (trip),
	// probe fail, probe fail, probe succeeds (recover), then writes.
	settled := func() float64 {
		return metric(n.s, "bschedd_diskcache_events_total", "write") +
			metric(n.s, "bschedd_diskcache_io_errors_total") + metric(n.s, "bschedd_breaker_events_total", "reject")
	}
	for i := 0; i < 7; i++ {
		before := settled()
		p.compile(fmt.Sprintf("write-%d", i), 0, CompileRequest{Program: demoVariant(10 + i)})
		for deadline := time.Now().Add(5 * time.Second); settled() == before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("write %d never settled", i)
			}
		}
		time.Sleep(60 * time.Millisecond)
	}
	for deadline := time.Now().Add(10 * time.Second); metric(n.s, "bschedd_profiles_retained") < 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the breaker_open captures never landed")
		}
	}
	var idx struct {
		Profiles []struct {
			Kind   string `json:"kind"`
			Reason string `json:"reason"`
		} `json:"profiles"`
	}
	getJSON(t, n.url+"/v1/profiles", &idx)
	var kinds []string
	for _, e := range idx.Profiles {
		kinds = append(kinds, e.Kind+"/"+e.Reason)
	}
	sort.Strings(kinds)
	p.out["profiles"] = kinds
	p.state("node0", 0)
	p.write("3-breaker")
}

func identityFleet(t *testing.T) {
	var urls [2]string
	var lns [2]net.Listener
	for i, port := range identityPorts {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			t.Fatalf("fleet phase needs port %d: %v", port, err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	var nodes [2]*idNode
	for i := range nodes {
		nodes[i] = startIDNode(t, Config{Workers: 2, SelfURL: urls[i], Peers: []string{urls[1-i]},
			PeerProbeTimeout: 2 * time.Second}, lns[i])
	}
	a, b := nodes[0], nodes[1]
	t.Cleanup(a.stop)
	t.Cleanup(b.stop)
	p := newIDPhase(t, a, b)

	// Programs whose one block node 1 owns, so node 0 probes for them.
	var owned []string
	for i := 100; len(owned) < 3; i++ {
		if owner, _ := a.s.cluster.Owner(blockKey(t, demoVariant(i))); owner == b.url {
			owned = append(owned, demoVariant(i))
		}
	}

	// A probe miss: node 0 compiles and offers the result to the owner.
	p.compile("probe-miss", 0, CompileRequest{Program: owned[0]})
	for deadline := time.Now().Add(5 * time.Second); metric(a.s, "bschedd_peer_offers_total", "sent") < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the offer never landed")
		}
	}
	p.compile("offered-on-owner", 1, CompileRequest{Program: owned[0]})

	// A peer hit.
	p.compile("owner-compiles", 1, CompileRequest{Program: owned[1]})
	hit := p.compile("peer-hit", 0, CompileRequest{Program: owned[1]})

	// A lookup the owner holds on its own in-flight, gated compile.
	gate, started := make(chan struct{}), make(chan struct{})
	var once sync.Once
	inner := b.s.compileFn
	b.s.compileFn = func(ctx context.Context, blk *ir.Block, o compile.Options) (*compile.BlockResult, error) {
		once.Do(func() { close(started) })
		<-gate
		return inner(ctx, blk, o)
	}
	var wg sync.WaitGroup
	var gated, held *idExchange
	wg.Add(1)
	go func() {
		defer wg.Done()
		gated = p.compileAsync("gated-on-owner", 1, CompileRequest{Program: owned[2]})
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		held = p.compileAsync("held-peer-hit", 0, CompileRequest{Program: owned[2]})
	}()
	time.Sleep(150 * time.Millisecond)
	close(gate)
	wg.Wait()
	p.ex = append(p.ex, gated, held)
	b.s.compileFn = inner

	// Stitching, in both renderings.
	p.stitch("stitch-tree", hit.traceID)
	p.stitch("stitch-tree-held", held.traceID)
	p.out["stitch_perfetto"] = perfettoOf(t, a.url+"/v1/traces/"+hit.traceID+"?fleet=1")
	p.state("node0", 0)
	p.state("node1", 1)

	// One peer stopped. Its log and traces stay readable in memory.
	b.stop()
	p.stitch("stitch-tree-peer-down", hit.traceID)
	p.state("node0-peer-down", 0)
	p.write("4-fleet")
}

// compileAsync is compile for a request sent from its own goroutine:
// the exchange is returned, not recorded, so the caller records both
// in a fixed order.
func (p *idPhase) compileAsync(name string, i int, req CompileRequest) *idExchange {
	body, _ := json.Marshal(req)
	n := p.nodes[i]
	resp, err := http.Post(n.url+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		p.t.Error(err)
		return &idExchange{Name: name, Node: i, node: n}
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return &idExchange{Name: name, Node: i, Request: "POST /v1/compile", Status: resp.StatusCode,
		Body: canonBody(resp.Header.Get("Content-Type"), raw), node: n,
		reqID: resp.Header.Get("X-Request-ID"), traceID: resp.Header.Get("X-Trace-ID"),
		Headers: map[string]string{"Content-Type": resp.Header.Get("Content-Type")}}
}

// perfettoOf reads a Chrome trace-event document and keeps, per event,
// its phase, name and process, plus each process's name.
func perfettoOf(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ev := range doc.TraceEvents {
		line := fmt.Sprintf("%d %s %s", ev.Pid, ev.Ph, ev.Name)
		if ev.Ph == "M" {
			line += fmt.Sprintf(" %v", ev.Args["name"])
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}
