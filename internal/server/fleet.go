package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"

	"bsched/internal/obs"
)

// Fleet observability endpoints: GET /v1/fleet/stats and GET
// /v1/fleet/metrics answer from ANY node with the whole fleet's view.
// The serving node fetches every ring peer's GET /stats (its registry
// snapshot) over the cluster client's budgeted, breaker-guarded
// transport, merges the reachable nodes' families with
// obs.MergeFamilies, and annotates what didn't answer — a dead peer
// degrades the view (reachable: false, totals missing its share)
// instead of failing the request. /stats never fans out, so a fleet
// query is always exactly one hop deep.

// maxFleetResponseBytes bounds one peer's stats/trace payload.
const maxFleetResponseBytes = 8 << 20

// FleetNode is one node's slice of a fleet stats response.
type FleetNode struct {
	// Node is the node's advertised URL ("standalone" for a peerless
	// daemon); Self marks the node that served this response.
	Node string `json:"node"`
	Self bool   `json:"self,omitempty"`
	// Reachable is false when fetching the node's /stats failed; Error
	// carries the failure and Families is absent — the degraded-view
	// annotation.
	Reachable bool   `json:"reachable"`
	Error     string `json:"error,omitempty"`
	// Families is the node's GET /stats: its registry snapshot.
	Families []obs.FamilySnapshot `json:"families,omitempty"`
}

// FleetStats is the JSON shape of GET /v1/fleet/stats.
type FleetStats struct {
	// Self is the serving node; Nodes has one entry per ring node (self
	// first), reachable or not; Reachable counts the nodes that
	// answered.
	Self      string      `json:"self"`
	Nodes     []FleetNode `json:"nodes"`
	Reachable int         `json:"reachable"`
	// Totals is the reachable nodes' families merged by
	// obs.MergeFamilies — the view /v1/fleet/metrics renders as text:
	// counters sum, histograms add bucket-wise, and gauges keep one
	// series per node under a leading "node" label, never summed.
	Totals []obs.FamilySnapshot `json:"totals"`
}

// nodeID is this node's identity in fleet responses.
func (s *Server) nodeID() string {
	if s.cfg.SelfURL != "" {
		return s.cfg.SelfURL
	}
	return "standalone"
}

// fleetNodes gathers the registry snapshot of every fleet node for both
// fleet endpoints: this node's own, then each peer's GET /stats, ordered
// by peer URL. A peer that fails to answer is listed unreachable with
// its error.
func (s *Server) fleetNodes(r *http.Request) []FleetNode {
	nodes := []FleetNode{{Node: s.nodeID(), Self: true, Reachable: true, Families: s.stats.reg.Snapshot()}}
	for _, f := range s.cluster.FetchAll(r.Context(), "/stats", maxFleetResponseBytes) {
		n := FleetNode{Node: f.Peer}
		err := f.Err
		if err == nil {
			err = json.Unmarshal(f.Body, &n.Families)
		}
		if err != nil {
			n.Families, n.Error = nil, err.Error()
			note(r, "fleet_unreachable", f.Peer)
		} else {
			n.Reachable = true
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// mergeReachable merges the reachable nodes' families: the one fleet
// merge, which /v1/fleet/stats serves as totals and /v1/fleet/metrics
// renders.
func mergeReachable(nodes []FleetNode) []obs.FamilySnapshot {
	var snaps []obs.NodeSnapshot
	for _, n := range nodes {
		if n.Reachable {
			snaps = append(snaps, obs.NodeSnapshot{Node: n.Node, Families: n.Families})
		}
	}
	return obs.MergeFamilies(snaps)
}

// handleFleetStats serves GET /v1/fleet/stats: every node's snapshot and
// their merge.
func (s *Server) handleFleetStats(w http.ResponseWriter, r *http.Request) {
	nodes := s.fleetNodes(r)
	out := FleetStats{Self: s.nodeID(), Nodes: nodes, Totals: mergeReachable(nodes)}
	for _, n := range nodes {
		if n.Reachable {
			out.Reachable++
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleFleetMetrics serves GET /v1/fleet/metrics: the merged families
// (see obs.MergeFamilies), plus a synthetic bschedd_fleet_node_up gauge
// recording which nodes answered, rendered in Prometheus text
// exposition format.
func (s *Server) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	nodes := s.fleetNodes(r)
	nodeUp := obs.FamilySnapshot{
		Name:   "bschedd_fleet_node_up",
		Help:   "1 for each fleet node that answered this aggregation fan-out, 0 for each that did not — the per-node reachability annotation of the merged view.",
		Kind:   obs.KindGauge,
		Labels: []string{"node"},
	}
	for _, n := range nodes {
		v := 0.0
		if n.Reachable {
			v = 1
		}
		nodeUp.Series = append(nodeUp.Series, obs.SeriesSnapshot{LabelValues: []string{n.Node}, Value: v})
	}
	sort.Slice(nodeUp.Series, func(i, j int) bool {
		return nodeUp.Series[i].LabelValues[0] < nodeUp.Series[j].LabelValues[0]
	})

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteSnapshotText(w, append(mergeReachable(nodes), nodeUp))
}

// handleProfiles serves GET /v1/profiles: the continuous-profiling
// ring's index, newest first. 404 with profiling disabled (no
// -profile-dir).
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
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
