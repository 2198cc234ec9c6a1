package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"bsched/internal/obs"
)

// obsFleet is the fleet observability tests' base config: every trace
// retained, so capture is deterministic rather than sampled.
var obsFleet = Config{TraceSampleEvery: 1}

// postTraced sends one compile request and returns the X-Trace-ID the
// server assigned to it.
func postTraced(t *testing.T, url, program string) string {
	t.Helper()
	body, err := json.Marshal(CompileRequest{Program: program})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile on %s: status %d", url, resp.StatusCode)
	}
	return resp.Header.Get("X-Trace-ID")
}

// counterSeries adds every counter series of a snapshot into sum, keyed
// by its family's name and its quoted label values.
func counterSeries(sum map[string]float64, fams []obs.FamilySnapshot) {
	for _, f := range fams {
		if f.Kind != obs.KindCounter {
			continue
		}
		for _, s := range f.Series {
			sum[fmt.Sprintf("%s%q", f.Name, s.LabelValues)] += s.Value
		}
	}
}

// diffSeries lists each series whose value differs between want and
// got, or that only one of them has.
func diffSeries(what string, want, got map[string]float64) []string {
	var diffs []string
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			diffs = append(diffs, fmt.Sprintf("%s: %s = %g (present %v), want %g", what, k, g, ok, v))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: unexpected series %s", what, k))
		}
	}
	return diffs
}

// TestFleetStatsTotalsMatchNodeLocal sprays traffic across a 3-node
// fleet, then checks the aggregated /v1/fleet/stats answer from every
// node: every counter series in totals must equal the sum of the
// node-local counters exactly, and the counters /v1/fleet/metrics
// prints, with all three nodes reachable. A peer whose /stats fanned
// out again would count its peers twice here.
//
// Write-behind offers keep landing on their ring owners after the last
// response, moving bschedd_peer_offers_total under a pass. So the test
// repeats the pass until one agrees exactly, and reports the last
// pass's differences if none does within the deadline.
func TestFleetStatsTotalsMatchNodeLocal(t *testing.T) {
	nodes := startFleet(t, 3, obsFleet)
	for i := 0; i < 30; i++ {
		postTraced(t, nodes[i%3].url, fleetProgram(i%7))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		diffs := fleetTotalsDiff(t, nodes)
		if len(diffs) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no pass agreed within the deadline; the last differed in:\n%s", strings.Join(diffs, "\n"))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fleetTotalsDiff is one pass of TestFleetStatsTotalsMatchNodeLocal: it
// reads the node-local counters straight from the registries, then
// every node's fleet answers, and lists where an answer differs from
// the node-local sums.
func fleetTotalsDiff(t *testing.T, nodes []*fleetNode) []string {
	t.Helper()
	want := map[string]float64{}
	for _, n := range nodes {
		counterSeries(want, n.s.stats.reg.Snapshot())
	}
	if reqs := want["bschedd_requests_total[]"]; reqs != 30 {
		t.Fatalf("node-local requests sum to %g, want 30", reqs)
	}
	var diffs []string
	for _, n := range nodes {
		var fs FleetStats
		if status := getJSON(t, n.url+"/v1/fleet/stats", &fs); status != http.StatusOK {
			t.Fatalf("fleet stats on %s: status %d", n.url, status)
		}
		if fs.Self != n.url {
			t.Errorf("fleet stats self = %q, want %q", fs.Self, n.url)
		}
		if fs.Reachable != 3 || len(fs.Nodes) != 3 {
			t.Fatalf("fleet stats from %s: reachable=%d nodes=%d, want 3/3", n.url, fs.Reachable, len(fs.Nodes))
		}
		totals := map[string]float64{}
		counterSeries(totals, fs.Totals)
		diffs = append(diffs, diffSeries("fleet totals from "+n.url, want, totals)...)
		printed := map[string]float64{}
		fams, _ := scrapeMetrics(t, n.url+"/v1/fleet")
		counterSeries(printed, fams)
		diffs = append(diffs, diffSeries("/v1/fleet/metrics counters from "+n.url, want, printed)...)
	}
	return diffs
}

// TestFleetStatsDegradedOnNodeKill kills one node and checks the fleet
// view degrades instead of failing: still 200, dead node annotated
// unreachable with an error, totals covering the two survivors.
func TestFleetStatsDegradedOnNodeKill(t *testing.T) {
	nodes := startFleet(t, 3, obsFleet)
	postTraced(t, nodes[0].url, demoProgram)
	nodes[2].ts.Close()
	nodes[2].s.Close()

	var fs FleetStats
	if status := getJSON(t, nodes[0].url+"/v1/fleet/stats", &fs); status != http.StatusOK {
		t.Fatalf("fleet stats with dead node: status %d", status)
	}
	if fs.Reachable != 2 {
		t.Fatalf("reachable = %d, want 2", fs.Reachable)
	}
	var dead *FleetNode
	for i := range fs.Nodes {
		if fs.Nodes[i].Node == nodes[2].url {
			dead = &fs.Nodes[i]
		}
	}
	if dead == nil {
		t.Fatal("dead node missing from fleet view")
	}
	if dead.Reachable || dead.Error == "" || dead.Families != nil {
		t.Fatalf("dead node not annotated: %+v", dead)
	}

	// healthz on a survivor must carry per-peer reachability detail.
	// The dead peer only shows unreachable once its breaker opens, so
	// burn a few failing probes first via repeated fleet queries.
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, nodes[0].url+"/v1/fleet/stats", nil)
		var health struct {
			Peers []struct {
				URL       string `json:"url"`
				Reachable bool   `json:"reachable"`
				Breaker   string `json:"breaker"`
			} `json:"peers"`
		}
		getJSON(t, nodes[0].url+"/healthz", &health)
		if len(health.Peers) != 2 {
			t.Fatalf("healthz peers = %d entries, want 2", len(health.Peers))
		}
		down := false
		for _, p := range health.Peers {
			if p.URL == nodes[2].url && !p.Reachable && p.Breaker == "open" {
				down = true
			}
		}
		if down {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never flagged the dead peer: %+v", health.Peers)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFleetMetricsMergedExposition checks /v1/fleet/metrics: the merged
// output parses under obs.ParseText, carries the
// synthetic per-node reachability gauge, and splits gauges per node.
func TestFleetMetricsMergedExposition(t *testing.T) {
	nodes := startFleet(t, 3, obsFleet)
	for i := 0; i < 9; i++ {
		postTraced(t, nodes[i%3].url, fleetProgram(i))
	}
	fams, _ := scrapeMetrics(t, nodes[1].url+"/v1/fleet")
	for _, n := range nodes {
		if up, _, _ := obs.Find(fams, "bschedd_fleet_node_up", n.url); up.Value != 1 {
			t.Errorf("node_up for %s = %g, want 1", n.url, up.Value)
		}
		if _, _, ok := obs.Find(fams, "go_goroutines", n.url); !ok {
			t.Errorf("gauge not split per node for %s", n.url)
		}
	}
	// Counters merged: the fleet-wide request total is the traffic sent
	// to all three nodes (a single un-merged node would show 3), and
	// nothing else compiles in this test.
	if v := statValue(fams, "bschedd_requests_total"); v != 9 {
		t.Errorf("fleet bschedd_requests_total = %g, want 9", v)
	}
}

// TestFleetTraceStitching reproduces a cross-node request — a compile
// served via a peer probe — and checks ?fleet=1 returns one stitched
// trace with fragments from at least two distinct nodes, in both tree
// and Perfetto form.
func TestFleetTraceStitching(t *testing.T) {
	nodes := startFleet(t, 3, obsFleet)

	// Warm keys on every node, then replay each key on the other nodes:
	// a replay on a non-owner misses locally and probes the owner,
	// whose lookup handler records the remote fragment.
	type hit struct {
		node *fleetNode
		id   string
	}
	var stitched *hit
	deadline := time.Now().Add(15 * time.Second)
	for k := 0; stitched == nil && time.Now().Before(deadline); k++ {
		prog := fleetProgram(500 + k)
		for i := 0; i < 3 && stitched == nil; i++ {
			node := nodes[(k+i)%3]
			id := postTraced(t, node.url, prog)
			if id == "" {
				continue
			}
			var frags struct {
				Nodes []string `json:"nodes"`
			}
			if getJSON(t, node.url+"/v1/traces/"+id+"?fleet=1&format=tree", &frags) != http.StatusOK {
				continue
			}
			if len(frags.Nodes) >= 2 {
				stitched = &hit{node: node, id: id}
			}
		}
	}
	if stitched == nil {
		t.Fatal("no cross-node trace produced fragments from 2+ nodes within the deadline")
	}

	// The Perfetto export of the same trace: one process lane per node.
	resp, err := http.Get(stitched.node.url + "/v1/traces/" + stitched.id + "?fleet=1")
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	err = json.NewDecoder(resp.Body).Decode(&chrome)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet Perfetto export: status %d err %v", resp.StatusCode, err)
	}
	lanes := map[int]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			lanes[ev.Pid] = true
		}
	}
	if len(lanes) < 2 {
		t.Fatalf("stitched Perfetto trace has %d process lanes, want >= 2", len(lanes))
	}
	if chrome.OtherData["trace_id"] != stitched.id {
		t.Errorf("otherData trace_id = %v, want %s", chrome.OtherData["trace_id"], stitched.id)
	}
}

// TestFleetPeerStage: a request whose block is foreign-owned probes
// the owner as the peer stage, one span and one sample from one clock
// reading, and the prober's stage histogram still matches its traces.
func TestFleetPeerStage(t *testing.T) {
	nodes := startFleet(t, 2, obsFleet)
	for k := 0; ; k++ {
		if k == 32 {
			t.Fatal("32 programs and none probed the other node")
		}
		id := postTraced(t, nodes[0].url, fleetProgram(k))
		if probes, _, _ := obs.Find(nodes[0].s.stats.reg.Snapshot(), "bschedd_stage_duration_seconds", stagePeer); probes.Count == 0 {
			continue
		}
		var tree obs.TraceView
		if code := getJSON(t, nodes[0].url+"/v1/traces/"+id+"?format=tree", &tree); code != http.StatusOK {
			t.Fatalf("GET probed request's trace: status %d", code)
		}
		var peer []obs.SpanView
		for _, sp := range tree.Spans {
			if sp.Name == stagePeer {
				peer = append(peer, sp)
			}
		}
		if len(peer) != 1 || len(peer[0].Attrs) != 2 || peer[0].Attrs[0].Key != "owner" || peer[0].Attrs[1].Key != "outcome" {
			t.Fatalf("probed request's peer spans %+v, want one with owner and outcome", peer)
		}
		checkStageSpans(t, nodes[0].s, k+1, stagePeer)
		return
	}
}

// TestPeerTraceEndpoint drives /v1/peer/trace directly: a retained
// trace round-trips as a span tree, an unknown one 404s, and garbage
// 400s.
func TestPeerTraceEndpoint(t *testing.T) {
	nodes := startFleet(t, 1, obsFleet)
	id := postTraced(t, nodes[0].url, demoProgram)
	if id == "" {
		t.Fatal("compile response carried no X-Trace-ID")
	}
	var view obs.TraceView
	if status := getJSON(t, nodes[0].url+"/v1/peer/trace/"+id, &view); status != http.StatusOK {
		t.Fatalf("peer trace: status %d", status)
	}
	if view.ID != id || len(view.Spans) == 0 {
		t.Fatalf("peer trace returned id=%s spans=%d", view.ID, len(view.Spans))
	}
	if status := getJSON(t, nodes[0].url+"/v1/peer/trace/"+strings.Repeat("0", 31)+"1", nil); status != http.StatusNotFound {
		t.Fatalf("absent trace: status %d, want 404", status)
	}
	if status := getJSON(t, nodes[0].url+"/v1/peer/trace/nope", nil); status != http.StatusBadRequest {
		t.Fatalf("malformed id: status %d, want 400", status)
	}
}

// TestStandaloneFleetEndpoints pins the peerless behavior: the fleet
// endpoints still answer, with a single "standalone" node.
func TestStandaloneFleetEndpoints(t *testing.T) {
	_, ts := startServer(t, Config{})
	if status, _, _ := postCompile(t, ts.URL, CompileRequest{Program: demoProgram}); status != http.StatusOK {
		t.Fatal("compile failed")
	}
	var fs FleetStats
	if status := getJSON(t, ts.URL+"/v1/fleet/stats", &fs); status != http.StatusOK {
		t.Fatalf("standalone fleet stats: status %d", status)
	}
	if fs.Self != "standalone" || len(fs.Nodes) != 1 || fs.Reachable != 1 {
		t.Fatalf("standalone fleet stats: %+v", fs)
	}
	if v := statValue(fs.Totals, "bschedd_requests_total"); v != 1 {
		t.Errorf("standalone totals bschedd_requests_total = %g, want 1", v)
	}
	fams, _ := scrapeMetrics(t, ts.URL+"/v1/fleet")
	if up, _, _ := obs.Find(fams, "bschedd_fleet_node_up", "standalone"); up.Value != 1 {
		t.Errorf("standalone node_up = %g, want 1", up.Value)
	}
}

// TestProfilesEndpoints checks the profiling surface end to end: 404
// without -profile-dir, and with a profile dir the ring index fills on
// a trigger and each entry downloads as a non-empty pprof blob.
func TestProfilesEndpoints(t *testing.T) {
	_, bare := startServer(t, Config{})
	if status := getJSON(t, bare.URL+"/v1/profiles", nil); status != http.StatusNotFound {
		t.Fatalf("profiles without -profile-dir: status %d, want 404", status)
	}

	s, ts := startServer(t, Config{
		ProfileDir:         t.TempDir(),
		ProfileInterval:    -1, // no periodic captures: the test triggers
		ProfileCPUDuration: 20 * time.Millisecond,
	})
	s.profiler.Trigger("test")
	var idx struct {
		Count    int `json:"count"`
		Profiles []struct {
			Name      string `json:"name"`
			Kind      string `json:"kind"`
			SizeBytes int64  `json:"size_bytes"`
		} `json:"profiles"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for idx.Count < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("profile ring never filled: %+v", idx)
		}
		time.Sleep(20 * time.Millisecond)
		if status := getJSON(t, ts.URL+"/v1/profiles", &idx); status != http.StatusOK {
			t.Fatalf("profiles index: status %d", status)
		}
	}
	for _, e := range idx.Profiles {
		resp, err := http.Get(ts.URL + "/v1/profiles/" + e.Name)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(raw) == 0 {
			t.Fatalf("download %s: status %d len %d err %v", e.Name, resp.StatusCode, len(raw), err)
		}
	}
	if status := getJSON(t, ts.URL+"/v1/profiles/../secrets", nil); status == http.StatusOK {
		t.Fatal("profile download accepted a traversal path")
	}

	// The capture counter and ring gauge surface in /metrics.
	fams, _ := scrapeMetrics(t, ts.URL)
	if v := statValue(fams, "bschedd_profile_captures_total", "cpu", "test"); v != 1 {
		t.Errorf("/metrics bschedd_profile_captures_total{cpu,test} = %g, want 1", v)
	}
	if v := statValue(fams, "bschedd_profiles_retained"); v != 2 {
		t.Errorf("/metrics bschedd_profiles_retained = %g, want 2", v)
	}
}
