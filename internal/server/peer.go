package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bsched/internal/engine"
)

// Peer-protocol endpoints (docs/CLUSTER.md). These are the cluster
// layer's second frontend over the same engine the public compile API
// drives: a peer lookup reads the node's cache through the engine's one
// peer read (engine.Read), and an offer installs a finished compilation
// exactly as a local worker would — so a schedule that crossed the
// fleet is indistinguishable from one compiled here.

const (
	// maxPeerWait clamps a lookup's wait_ms: how long this node will
	// hold a peer's request open for an in-flight compilation of the
	// same key. The prober's own deadline is usually much tighter.
	maxPeerWait = 2 * time.Second
	// maxOfferBytes bounds an offer body. A legitimate BlockResponse is
	// bounded by the same record limit the disk layer enforces.
	maxOfferBytes = 16 << 20
)

// handlePeerLookup answers GET /v1/peer/lookup/{key}?wait_ms=N: 200
// with the cached per-block BlockResponse when this node has the key
// (memory or disk), 404 when it does not. A still-compiling key is
// awaited for up to wait_ms — a short hold beats telling the prober to duplicate
// work that is milliseconds from finishing.
func (s *Server) handlePeerLookup(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, &ErrorResponse{Error: "GET only"})
		return
	}
	key, ok := engine.ParseKey(strings.TrimPrefix(r.URL.Path, "/v1/peer/lookup/"))
	if !ok {
		s.stats.clientErrors.Add(1)
		writeError(w, http.StatusBadRequest, &ErrorResponse{Error: "malformed cache key"})
		return
	}
	note(r, "peer", "lookup", "fingerprint", key.String())
	resp, src := s.eng.Read(r.Context(), key, peerWait(r))
	if resp == nil {
		writeError(w, http.StatusNotFound, &ErrorResponse{Error: "key not cached"})
		return
	}
	note(r, "cache", src.String())
	writeJSON(w, http.StatusOK, resp)
}

// peerWait parses and clamps the lookup's wait_ms query parameter.
func peerWait(r *http.Request) time.Duration {
	ms, err := strconv.Atoi(r.URL.Query().Get("wait_ms"))
	if err != nil || ms <= 0 {
		return 0
	}
	d := time.Duration(ms) * time.Millisecond
	if d > maxPeerWait {
		d = maxPeerWait
	}
	return d
}

// handlePeerOffer absorbs PUT /v1/peer/offer/{key}: a peer compiled a
// schedule this node owns on the ring and is handing the result over.
// The response is validated against the key's fingerprints before
// installation; an offer for a key this node already holds (in memory
// or in flight) is acknowledged and discarded — the local copy wins.
func (s *Server) handlePeerOffer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut {
		w.Header().Set("Allow", http.MethodPut)
		writeError(w, http.StatusMethodNotAllowed, &ErrorResponse{Error: "PUT only"})
		return
	}
	key, ok := engine.ParseKey(strings.TrimPrefix(r.URL.Path, "/v1/peer/offer/"))
	if !ok {
		s.stats.clientErrors.Add(1)
		writeError(w, http.StatusBadRequest, &ErrorResponse{Error: "malformed cache key"})
		return
	}
	var resp engine.BlockResponse
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxOfferBytes))
	if err := dec.Decode(&resp); err != nil {
		s.stats.clientErrors.Add(1)
		writeError(w, http.StatusBadRequest, &ErrorResponse{Error: "decode offer: " + err.Error()})
		return
	}
	if !resp.Matches(key) {
		s.stats.clientErrors.Add(1)
		writeError(w, http.StatusBadRequest, &ErrorResponse{Error: "offer fingerprints do not match key"})
		return
	}
	if s.eng.Install(key, &resp) {
		note(r, "peer", "offer", "installed", "true")
	} else {
		note(r, "peer", "offer", "installed", "false")
	}
	w.WriteHeader(http.StatusNoContent)
}
