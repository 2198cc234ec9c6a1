package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"

	"bsched/internal/obs"
)

// Fleet observability endpoints: GET /v1/fleet/stats and GET
// /v1/fleet/metrics answer from ANY node with the whole fleet's view.
// The serving node fans out to its ring peers over the cluster client's
// budgeted, breaker-guarded transport, merges what comes back, and
// annotates what didn't — a dead peer degrades the view (reachable:
// false, totals missing its share) instead of failing the request.
//
// Recursion guard: the fan-out requests carry the X-Fleet-Hop header,
// and a node answering a request with that header set responds with its
// node-local view only — so a fleet query is always exactly one hop
// deep, never a broadcast storm.

// fleetHopHeader marks a fan-out request from another node's fleet
// endpoint; the receiving node must answer locally, never fan out
// again.
const fleetHopHeader = "X-Fleet-Hop"

// maxFleetResponseBytes bounds one peer's stats/metrics/trace payload.
const maxFleetResponseBytes = 8 << 20

// FleetNode is one node's slice of a fleet stats response.
type FleetNode struct {
	// Node is the node's advertised URL ("standalone" for a peerless
	// daemon); Self marks the node that served this response.
	Node string `json:"node"`
	Self bool   `json:"self,omitempty"`
	// Reachable is false when the fan-out to this node failed; Error
	// carries the failure and Stats is absent — the degraded-view
	// annotation.
	Reachable bool      `json:"reachable"`
	Error     string    `json:"error,omitempty"`
	Stats     *Snapshot `json:"stats,omitempty"`
}

// FleetStats is the JSON shape of GET /v1/fleet/stats.
type FleetStats struct {
	// Self is the serving node; Nodes has one entry per ring node (self
	// included), reachable or not; Reachable counts the nodes that
	// answered.
	Self      string      `json:"self"`
	Nodes     []FleetNode `json:"nodes"`
	Reachable int         `json:"reachable"`
	// Totals sums every counter field (Snapshot.CounterTotals) across
	// the reachable nodes, keyed by the /stats JSON field names. Gauges
	// are per-node in Nodes, never summed.
	Totals map[string]int64 `json:"totals"`
}

// nodeID is this node's identity in fleet responses.
func (s *Server) nodeID() string {
	if s.cfg.SelfURL != "" {
		return s.cfg.SelfURL
	}
	return "standalone"
}

// fanOut fetches path (with the hop header set) from every peer
// concurrently, handing each result or error to collect under a lock.
func (s *Server) fanOut(r *http.Request, path string, collect func(peer string, body []byte, err error)) {
	if s.cluster == nil {
		return
	}
	peers := s.cluster.Peers()
	hdr := http.Header{fleetHopHeader: []string{"1"}}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, peer := range peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			body, err := s.cluster.Fetch(r.Context(), peer, path, hdr, maxFleetResponseBytes)
			mu.Lock()
			collect(peer, body, err)
			mu.Unlock()
		}(peer)
	}
	wg.Wait()
}

// handleFleetStats serves GET /v1/fleet/stats. With the hop header set
// (or on a standalone node for the hop case) it answers with the
// node-local snapshot; otherwise it fans out and aggregates.
func (s *Server) handleFleetStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, &ErrorResponse{Error: "GET only"})
		return
	}
	if r.Header.Get(fleetHopHeader) != "" {
		// One hop deep already: answer locally, never fan out again.
		writeJSON(w, http.StatusOK, s.Stats())
		return
	}

	local := s.Stats()
	nodes := []FleetNode{{Node: s.nodeID(), Self: true, Reachable: true, Stats: &local}}
	s.fanOut(r, "/v1/fleet/stats", func(peer string, body []byte, err error) {
		n := FleetNode{Node: peer}
		if err == nil {
			var snap Snapshot
			if uerr := json.Unmarshal(body, &snap); uerr != nil {
				err = uerr
			} else {
				n.Reachable = true
				n.Stats = &snap
			}
		}
		if err != nil {
			n.Error = err.Error()
			note(r, "fleet_unreachable", peer)
		}
		nodes = append(nodes, n)
	})

	out := FleetStats{Self: s.nodeID(), Nodes: nodes, Totals: make(map[string]int64)}
	for _, n := range nodes {
		if !n.Reachable || n.Stats == nil {
			continue
		}
		out.Reachable++
		for k, v := range n.Stats.CounterTotals() {
			out.Totals[k] += v
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleFleetMetrics serves GET /v1/fleet/metrics. With the hop header
// set it ships the node-local registry snapshot as JSON (the mergeable
// wire form); otherwise it fans out, merges every node's families
// (counters sum, gauges gain a "node" label, histograms add
// bucket-wise — see obs.MergeFamilies), appends a synthetic
// bschedd_fleet_node_up gauge recording which nodes answered, and
// renders the merged registry in Prometheus text exposition format.
func (s *Server) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, &ErrorResponse{Error: "GET only"})
		return
	}
	if r.Header.Get(fleetHopHeader) != "" {
		writeJSON(w, http.StatusOK, s.stats.reg.Snapshot())
		return
	}

	nodes := []obs.NodeSnapshot{{Node: s.nodeID(), Families: s.stats.reg.Snapshot()}}
	up := map[string]bool{s.nodeID(): true}
	s.fanOut(r, "/v1/fleet/metrics", func(peer string, body []byte, err error) {
		up[peer] = false
		if err != nil {
			note(r, "fleet_unreachable", peer)
			return
		}
		var fams []obs.FamilySnapshot
		if err := json.Unmarshal(body, &fams); err != nil {
			note(r, "fleet_unreachable", peer)
			return
		}
		up[peer] = true
		nodes = append(nodes, obs.NodeSnapshot{Node: peer, Families: fams})
	})

	merged := obs.MergeFamilies(nodes)
	nodeUp := obs.FamilySnapshot{
		Name:   "bschedd_fleet_node_up",
		Help:   "1 for each fleet node that answered this aggregation fan-out, 0 for each that did not — the per-node reachability annotation of the merged view.",
		Kind:   obs.KindGauge,
		Labels: []string{"node"},
	}
	for node, ok := range up {
		v := 0.0
		if ok {
			v = 1
		}
		nodeUp.Series = append(nodeUp.Series, obs.SeriesSnapshot{LabelValues: []string{node}, Value: v})
	}
	sort.Slice(nodeUp.Series, func(i, j int) bool {
		return nodeUp.Series[i].LabelValues[0] < nodeUp.Series[j].LabelValues[0]
	})
	merged = append(merged, nodeUp)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteSnapshotText(w, merged)
}

// handleProfiles serves GET /v1/profiles: the continuous-profiling
// ring's index, newest first. 404 with profiling disabled (no
// -profile-dir).
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, &ErrorResponse{Error: "GET only"})
		return
	}
	if s.profiler == nil {
		writeError(w, http.StatusNotFound, &ErrorResponse{Error: "profiling disabled (no -profile-dir)"})
		return
	}
	idx := s.profiler.Index()
	writeJSON(w, http.StatusOK, map[string]any{
		"count":    len(idx),
		"profiles": idx,
	})
}

// handleProfileByName serves GET /v1/profiles/{name}: one pprof file
// from the ring, downloadable straight into `go tool pprof`.
func (s *Server) handleProfileByName(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, &ErrorResponse{Error: "GET only"})
		return
	}
	if s.profiler == nil {
		writeError(w, http.StatusNotFound, &ErrorResponse{Error: "profiling disabled (no -profile-dir)"})
		return
	}
	name := r.URL.Path[len("/v1/profiles/"):]
	f, err := s.profiler.Open(name)
	if err != nil {
		writeError(w, http.StatusNotFound, &ErrorResponse{Error: "no such profile"})
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	io.Copy(w, f)
}
