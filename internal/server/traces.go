package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"bsched/internal/cluster"
	"bsched/internal/obs"
)

// handleTraces serves GET /v1/traces: a JSON index of the retained
// traces, newest first. Filters: ?status=ok|error keeps only traces
// with that root status, ?min_ms=N keeps traces at least that slow,
// ?limit=N caps the result count.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, &ErrorResponse{Error: "tracing disabled (-traces < 0)"})
		return
	}
	q := r.URL.Query()
	status := q.Get("status")
	if status != "" && status != "ok" && status != "error" {
		writeError(w, http.StatusBadRequest, &ErrorResponse{Error: "status must be ok or error"})
		return
	}
	minMillis := 0.0
	if v := q.Get("min_ms"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			writeError(w, http.StatusBadRequest, &ErrorResponse{Error: "min_ms must be a non-negative number"})
			return
		}
		minMillis = f
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, &ErrorResponse{Error: "limit must be a positive integer"})
			return
		}
		limit = n
	}
	all := s.tracer.Store().List()
	out := make([]obs.TraceIndexEntry, 0, len(all))
	for _, e := range all {
		if status != "" && e.Status != status {
			continue
		}
		if e.DurationMillis < minMillis {
			continue
		}
		out = append(out, e)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": out, "count": len(out)})
}

// handleTraceByID serves GET /v1/traces/{id}. The default rendering is
// Chrome trace-event JSON — load it in https://ui.perfetto.dev or
// chrome://tracing to see the span waterfall; ?format=tree returns the
// raw span tree instead. With ?fleet=1 the node also collects the
// trace's remote fragments from its ring peers (the halves recorded on
// the block's owning node when a request peer-hit or probed) and emits
// one stitched view — one Perfetto process lane per node.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, &ErrorResponse{Error: "tracing disabled (-traces < 0)"})
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	id, ok := obs.ParseTraceID(raw)
	if !ok {
		writeError(w, http.StatusBadRequest, &ErrorResponse{Error: "trace id must be 32 lowercase hex digits"})
		return
	}
	t, ok := s.tracer.Store().Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, &ErrorResponse{Error: "trace not retained (evicted, sampled out, or never existed)"})
		return
	}
	v := t.View()
	if r.URL.Query().Get("fleet") != "" {
		s.serveFleetTrace(w, r, raw, v)
		return
	}
	if r.URL.Query().Get("format") == "tree" {
		writeJSON(w, http.StatusOK, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteChromeTrace(w, v) // client hanging up mid-write is not our error
}

// serveFleetTrace collects the remote fragments of trace id from every
// ring peer (its GET /v1/traces/{id}?format=tree; cluster.ErrNotFound
// just means that node retained no fragment) and writes the stitched
// result: the local fragment first, then each peer's, ordered by peer
// URL. The default rendering is the merged Perfetto JSON; ?format=tree
// returns the per-node span trees.
func (s *Server) serveFleetTrace(w http.ResponseWriter, r *http.Request, rawID string, local obs.TraceView) {
	frags := []obs.NodeTrace{{Node: s.nodeID(), View: local}}
	for _, f := range s.cluster.FetchAll(r.Context(), "/v1/traces/"+rawID+"?format=tree", maxFleetResponseBytes) {
		if f.Err == cluster.ErrNotFound {
			continue
		}
		var v obs.TraceView
		if f.Err != nil || json.Unmarshal(f.Body, &v) != nil {
			note(r, "fleet_unreachable", f.Peer)
			continue
		}
		frags = append(frags, obs.NodeTrace{Node: f.Peer, View: v})
	}

	if r.URL.Query().Get("format") == "tree" {
		nodes := make([]string, 0, len(frags))
		for _, f := range frags {
			nodes = append(nodes, f.Node)
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"id":        rawID,
			"nodes":     nodes,
			"fragments": frags,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteChromeTraceFleet(w, frags)
}
