package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bsched/internal/compile"
	"bsched/internal/engine"
	"bsched/internal/ir"
)

// fleetNode is one in-process bschedd of a test fleet.
type fleetNode struct {
	s        *Server
	ts       *httptest.Server
	url      string
	compiles atomic.Int64
}

// startFleet brings up n servers that list each other as peers, each
// built from base plus its ring identity, and counts every node's
// compilations. The listeners are allocated first so every node knows
// the full URL set before construction — the ring must be identical
// fleet-wide. The probe budget is a generous 2s: these tests check
// protocol correctness, not probe-timeout tuning on a loaded CI box.
func startFleet(t *testing.T, n int, base Config) []*fleetNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := base
		cfg.SelfURL, cfg.Peers, cfg.PeerProbeTimeout = urls[i], peers, 2*time.Second
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		node := &fleetNode{s: s, url: urls[i]}
		inner := s.compileFn
		s.compileFn = func(ctx context.Context, b *ir.Block, o compile.Options) (*compile.BlockResult, error) {
			node.compiles.Add(1)
			return inner(ctx, b, o)
		}
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		node.ts = ts
		nodes[i] = node
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
	}
	return nodes
}

// fleetProgram derives a unique program per key index.
func fleetProgram(i int) string {
	return strings.Replace(demoProgram, "const 8", fmt.Sprintf("const %d", 8+16*i), 1)
}

// totalCompiles sums the per-node compile counters.
func totalCompiles(nodes []*fleetNode) int64 {
	var sum int64
	for _, n := range nodes {
		sum += n.compiles.Load()
	}
	return sum
}

// TestFleetDeduplicatesCompiles sprays a Zipf-skewed stream of requests
// round-robin across a 3-node fleet and checks the fleet converges
// toward one compilation per unique program: probes serve foreign-owned
// keys from their ring owner, offers hand locally compiled foreign keys
// to the owner, and no request ever fails because of a peer.
func TestFleetDeduplicatesCompiles(t *testing.T) {
	nodes := startFleet(t, 3, Config{})
	const uniqueKeys = 12
	const requests = 90
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1.0, uniqueKeys-1)

	for i := 0; i < requests; i++ {
		k := int(zipf.Uint64())
		node := nodes[i%len(nodes)]
		status, resp, errResp := postCompile(t, node.url, CompileRequest{Program: fleetProgram(k)})
		if status != http.StatusOK {
			t.Fatalf("request %d (key %d, node %s): status %d (%+v)", i, k, node.url, status, errResp)
		}
		if resp.Program == "" {
			t.Fatalf("request %d: empty schedule", i)
		}
	}

	// Every unique key compiled at least once somewhere; the fleet-wide
	// total must be far below the request count and near the unique
	// count. The slack (2x) absorbs the one legitimate duplicate per
	// key: a non-owner that probed before the owner had the result.
	total := totalCompiles(nodes)
	if total < uniqueKeys/2 {
		t.Fatalf("suspiciously few compiles (%d) for %d unique keys", total, uniqueKeys)
	}
	if total > 2*uniqueKeys {
		t.Errorf("fleet compiled %d times for %d unique keys — peer dedup not converging", total, uniqueKeys)
	}

	// The protocol must actually have carried traffic: at least one
	// probe hit fleet-wide, and no probe error inside a healthy fleet.
	var probeHits, probeErrors float64
	var offersSent int64
	for _, n := range nodes {
		probeHits += metric(n.s, "bschedd_peer_probes_total", "hit")
		probeErrors += metric(n.s, "bschedd_peer_probes_total", "error")
		offersSent += n.s.stats.offerSent.Value()
		if v := statValue(getStats(t, n.url), "bschedd_peer_ring_nodes"); v != 3 {
			t.Errorf("node %s: bschedd_peer_ring_nodes = %g, want 3", n.url, v)
		}
	}
	if probeHits == 0 {
		t.Error("no peer probe hits across the whole run")
	}
	if probeErrors != 0 {
		t.Errorf("%g peer probe errors inside a healthy fleet", probeErrors)
	}
	if offersSent == 0 {
		t.Error("no peer offers sent across the whole run")
	}
}

// TestFleetNodeKillNoClientErrors kills one node mid-run and checks the
// survivors keep answering every client request: a dead owner costs a
// failed probe (falling back to a local compile), never a client error.
func TestFleetNodeKillNoClientErrors(t *testing.T) {
	nodes := startFleet(t, 3, Config{})
	// Warm a few keys across the fleet.
	for k := 0; k < 6; k++ {
		if status, _, _ := postCompile(t, nodes[k%3].url, CompileRequest{Program: fleetProgram(k)}); status != http.StatusOK {
			t.Fatalf("warm key %d: status %d", k, status)
		}
	}
	// Kill node 2: close its HTTP listener so probes and offers to it
	// fail with transport errors.
	nodes[2].ts.Close()
	nodes[2].s.Close()

	for i := 0; i < 40; i++ {
		node := nodes[i%2] // survivors only
		status, _, errResp := postCompile(t, node.url, CompileRequest{Program: fleetProgram(100 + i)})
		if status != http.StatusOK {
			t.Fatalf("request %d after node kill: status %d (%+v)", i, status, errResp)
		}
	}

	// After enough failed probes the dead peer's breaker opens; once it
	// does, the survivors' healthz may flag degradation only when more
	// than half their peers are gone (1 of 2 is not). Just assert the
	// endpoint still answers and parses.
	resp, err := http.Get(nodes[0].url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil || body["status"] != "ok" {
		t.Fatalf("healthz after node kill: err=%v body=%v", err, body)
	}
}

// TestStandaloneUnchanged pins the compatibility contract: a server
// with no Peers shows no cluster traffic — its ring is itself, every
// peer probe and offer counter in /stats reads 0 — and a healthy
// /healthz body has exactly the original two fields.
func TestStandaloneUnchanged(t *testing.T) {
	_, ts := startServer(t, Config{})
	if status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram}); status != http.StatusOK {
		t.Fatal("compile failed")
	}
	fams := getStats(t, ts.URL)
	if v := statValue(fams, "bschedd_peer_ring_nodes"); v != 1 {
		t.Errorf("standalone bschedd_peer_ring_nodes = %g, want 1", v)
	}
	peerSeries := 0
	for _, f := range fams {
		if f.Name != "bschedd_peer_probes_total" && f.Name != "bschedd_peer_offers_total" {
			continue
		}
		for _, s := range f.Series {
			peerSeries++
			if s.Value != 0 {
				t.Errorf("standalone %s%v = %g, want 0", f.Name, s.LabelValues, s.Value)
			}
		}
	}
	if peerSeries != 6 {
		t.Errorf("standalone /stats has %d peer probe and offer series, want 6", peerSeries)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	err = json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(health) != 2 || health["status"] != "ok" {
		t.Errorf("standalone healthz body changed: %v", health)
	}
}

// TestPeerLookupAndOfferEndpoints drives the peer protocol directly
// against one node: offer a compiled per-block response for a foreign
// block key, then read it back via the lookup endpoint.
func TestPeerLookupAndOfferEndpoints(t *testing.T) {
	s, ts := startServer(t, Config{})

	// Compile locally to obtain a well-formed cached block and its key.
	status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram})
	if status != http.StatusOK {
		t.Fatal("seed compile failed")
	}
	prog, err := ir.Parse(demoProgram)
	if err != nil {
		t.Fatal(err)
	}
	key := engine.Key{Block: prog.Funcs[0].Blocks[0].Fingerprint(), Opts: (&RequestOptions{}).fingerprint()}

	// Lookup of the freshly compiled block key: 200 with matching
	// fingerprint.
	lresp, err := http.Get(ts.URL + "/v1/peer/lookup/" + key.String())
	if err != nil {
		t.Fatal(err)
	}
	var got engine.BlockResponse
	err = json.NewDecoder(lresp.Body).Decode(&got)
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("peer lookup: status %d err %v", lresp.StatusCode, err)
	}
	if want := fmt.Sprintf("%016x", key.Block); got.Fingerprint != want {
		t.Fatalf("peer lookup returned fingerprint %s, want %s", got.Fingerprint, want)
	}

	// Lookup of an absent key: 404.
	absent := engine.Key{Block: 0xdeadbeef, Opts: 0x1}
	lresp, err = http.Get(ts.URL + "/v1/peer/lookup/" + absent.String())
	if err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent-key lookup: status %d, want 404", lresp.StatusCode)
	}

	// Offer with mismatched fingerprints: 400, nothing installed.
	body, _ := json.Marshal(&got)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/peer/offer/"+absent.String(), strings.NewReader(string(body)))
	oresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()
	if oresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched offer: status %d, want 400", oresp.StatusCode)
	}

	// A well-formed offer for a new block key: 204, then servable via
	// lookup and via the public compile path as a memory hit.
	fresh := strings.Replace(demoProgram, "const 8", "const 4096", 1)
	fprog, err := ir.Parse(fresh)
	if err != nil {
		t.Fatal(err)
	}
	fkey := engine.Key{Block: fprog.Funcs[0].Blocks[0].Fingerprint(), Opts: (&RequestOptions{}).fingerprint()}
	offered := got
	offered.Fingerprint = fmt.Sprintf("%016x", fkey.Block)
	offered.OptionsFingerprint = fmt.Sprintf("%016x", fkey.Opts)
	body, _ = json.Marshal(&offered)
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/peer/offer/"+fkey.String(), strings.NewReader(string(body)))
	oresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()
	if oresp.StatusCode != http.StatusNoContent {
		t.Fatalf("offer: status %d, want 204", oresp.StatusCode)
	}
	before := s.stats.cacheMisses.Value()
	status, cached, _ := postCompile(t, ts.URL, CompileRequest{Program: fresh})
	if status != http.StatusOK || !cached.Cached {
		t.Fatalf("offered key not served as a cache hit (status %d, cached %v)", status, cached != nil && cached.Cached)
	}
	if s.stats.cacheMisses.Value() != before {
		t.Error("offered key still produced a compile miss")
	}
}
