package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bsched/internal/admission"
	"bsched/internal/engine"
	"bsched/internal/obs"
)

// DefaultProbeTimeout bounds one peer lookup round trip when
// Config.ProbeTimeout is zero. It is a strict budget, not a deadline to
// spend: a probe that misses it falls back to compiling locally, so the
// worst case a peer adds to a client request is this long.
const DefaultProbeTimeout = 250 * time.Millisecond

const (
	// offerQueue buffers the write-behind offer channel; when the drain
	// goroutine falls behind, further offers are dropped (and counted)
	// rather than blocking a compilation worker.
	offerQueue = 256
	// offerAttempts is how many times one offer is tried before it is
	// dropped.
	offerAttempts = 3
	// offerBackoff separates an offer's retry attempts (multiplied by
	// the attempt number).
	offerBackoff = 50 * time.Millisecond
	// maxInflightProbes bounds concurrent reads (probes and fleet
	// fetches) per peer — the load bound behind the ring's bounded-load
	// walk. Reads over the bound are refused (a probe then compiles
	// locally) instead of queueing on a peer that is already saturated.
	maxInflightProbes = 32
	// maxPeerResponseBytes bounds a peer lookup's response body; a
	// legitimate BlockResponse fits far under the disk layer's record
	// bound, so anything larger is treated as a protocol error.
	maxPeerResponseBytes = 16 << 20
)

// Metrics are the offer counters. Only the client sees an offer's
// outcome (Offer drops on a full queue; the drain goroutine sends or
// drops), whereas Probe returns its outcome and the caller counts it.
// Nil fields count nothing.
type Metrics struct {
	OfferSent, OfferDropped *obs.Counter
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Config wires one node into the fleet.
type Config struct {
	// Self is this node's advertised base URL — its identity on the
	// ring. Required.
	Self string
	// Peers are the other nodes' base URLs. Required non-empty (a
	// single-node fleet needs no cluster client at all).
	Peers []string
	// Replicas is the virtual-node count per node; zero means
	// DefaultReplicas.
	Replicas int
	// ProbeTimeout bounds one peer lookup; zero means
	// DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// Metrics receives event counts; the zero value counts nothing.
	Metrics Metrics
}

// peerState is one remote node's health: a circuit breaker (the
// admission defaults) fed by read and offer outcomes, and the in-flight
// read count behind the bounded-load veto.
type peerState struct {
	brk      *admission.Breaker
	inflight atomic.Int64
}

// Client is a node's view of the fleet: the ring, one breaker per
// peer, and the write-behind offer queue. It implements engine.Fleet
// (Owner, Probe, Offer), so it plugs straight into engine.Config.Peers.
type Client struct {
	cfg   Config
	ring  *Ring
	peers map[string]*peerState
	urls  []string // the peers' URLs, sorted: FetchAll's and Health's order
	hc    *http.Client

	offers chan offerItem
	done   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
}

type offerItem struct {
	key  engine.Key
	resp *engine.BlockResponse
}

// New validates the config, builds the ring over Self+Peers, and
// starts the offer drain goroutine.
func New(cfg Config) (*Client, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self (this node's advertised URL) is required")
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: at least one peer is required")
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	c := &Client{
		cfg:    cfg,
		peers:  make(map[string]*peerState, len(cfg.Peers)),
		hc:     &http.Client{Timeout: cfg.ProbeTimeout + time.Second},
		offers: make(chan offerItem, offerQueue),
		done:   make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		if p == cfg.Self || p == "" {
			continue
		}
		if _, dup := c.peers[p]; dup {
			continue
		}
		c.peers[p] = &peerState{brk: admission.NewBreaker(admission.BreakerConfig{})}
		c.urls = append(c.urls, p)
	}
	if len(c.peers) == 0 {
		return nil, fmt.Errorf("cluster: peer list contains only this node")
	}
	sort.Strings(c.urls)
	c.ring = NewRing(append([]string{cfg.Self}, c.urls...), cfg.Replicas)
	c.wg.Add(1)
	go c.drainOffers()
	return c, nil
}

// Close stops the offer drain; queued offers not yet sent are dropped
// (they are a cache optimization, not data).
func (c *Client) Close() {
	c.once.Do(func() {
		close(c.done)
		c.wg.Wait()
	})
}

// veto is the bounded-load walk's exclusion rule: a peer whose breaker
// is open does not own keys until it recovers. Self is never vetoed —
// the local engine is always reachable.
func (c *Client) veto(node string) bool {
	ps, ok := c.peers[node]
	return ok && ps.brk.State() == admission.BreakerOpen
}

// Owner resolves a key's owning node under the current health view;
// self reports whether that owner is this node (no peer traffic
// needed). Both the probe and the offer path use this one resolution,
// so while a node is down every healthy node agrees on the stand-in.
func (c *Client) Owner(key engine.Key) (node string, self bool) {
	node = c.ring.Owner(key.Hash(), c.veto)
	return node, node == c.cfg.Self
}

// Probe asks owner, a foreign node Owner returned, for key: GET
// /v1/peer/lookup/{key}. It never returns an error to propagate — a
// failed probe is an outcome, and the caller's fallback is always a
// local compile. traceparent, when non-empty, rides the request so the
// owner's spans join the caller's trace.
func (c *Client) Probe(ctx context.Context, owner string, key engine.Key, traceparent string) (*engine.BlockResponse, engine.ProbeOutcome) {
	// Let the owner hold the request for most of the budget when the key
	// is compiling there right now: a short in-flight wait beats a
	// guaranteed duplicate compile.
	waitMS := (c.cfg.ProbeTimeout * 3 / 4).Milliseconds()
	path := fmt.Sprintf("/v1/peer/lookup/%s?wait_ms=%d", key, waitMS)
	var resp engine.BlockResponse
	_, err := c.get(ctx, owner, path, traceparent, maxPeerResponseBytes, func(body []byte) error {
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&resp); err != nil {
			return err
		}
		if !resp.Matches(key) {
			return fmt.Errorf("cluster: peer %s answered for another key", owner)
		}
		return nil
	})
	_, refused := err.(refusal)
	switch {
	case err == nil:
		return &resp, engine.ProbeOutcomeHit
	case refused:
		return nil, engine.ProbeOutcomeSkip
	case err == ErrNotFound:
		return nil, engine.ProbeOutcomeMiss
	}
	return nil, engine.ProbeOutcomeError
}

// Offer is called by a compilation worker for every completed cacheable
// result. Self-owned keys are a no-op; for foreign keys the offer is
// queued for the write-behind drain and dropped (counted) when the queue
// is full. Never blocks.
func (c *Client) Offer(key engine.Key, resp *engine.BlockResponse) {
	if _, self := c.Owner(key); self {
		return
	}
	select {
	case <-c.done:
		return
	default:
	}
	select {
	case c.offers <- offerItem{key: key, resp: resp}:
	default:
		inc(c.cfg.Metrics.OfferDropped)
	}
}

// drainOffers sends queued offers to their owners with bounded retry
// and backoff. One goroutine is deliberate: offers are a background
// cache fill, and serializing them caps the extra load a node can put
// on its peers.
func (c *Client) drainOffers() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case it := <-c.offers:
			c.sendOffer(it)
		}
	}
}

func (c *Client) sendOffer(it offerItem) {
	// Resolve the owner at send time, not enqueue time: a breaker that
	// tripped in between redirects the offer to the stand-in owner the
	// probes now agree on.
	owner, self := c.Owner(it.key)
	if self {
		return
	}
	ps, ok := c.peers[owner]
	if !ok {
		inc(c.cfg.Metrics.OfferDropped)
		return
	}
	body, err := json.Marshal(it.resp)
	if err != nil {
		inc(c.cfg.Metrics.OfferDropped)
		return
	}
	for attempt := 1; attempt <= offerAttempts; attempt++ {
		if attempt > 1 {
			select {
			case <-c.done:
				return
			case <-time.After(time.Duration(attempt-1) * offerBackoff):
			}
		}
		if !ps.brk.Allow() {
			continue
		}
		if c.putOffer(owner, it.key, body) {
			ps.brk.Success()
			inc(c.cfg.Metrics.OfferSent)
			return
		}
		ps.brk.Failure()
	}
	inc(c.cfg.Metrics.OfferDropped)
}

func (c *Client) putOffer(owner string, key engine.Key, body []byte) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	url := fmt.Sprintf("%s/v1/peer/offer/%s", owner, key)
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// refusal is a read get declined to send: the peer is unknown, at its
// in-flight bound, or behind an open breaker. It touches no breaker.
type refusal string

func (r refusal) Error() string { return string(r) }

// ErrNotFound is get's answer to a 404 — a healthy "I don't have it"
// (no such key, no such trace here), distinct from a failure.
var ErrNotFound = errors.New("cluster: not found on peer")

// get is the one peer read: a GET of path on peer, under the peer's
// in-flight bound and breaker and the ProbeTimeout budget. traceparent,
// when non-empty, rides the request. It returns the body of a 200, up to
// maxBytes, once check (when non-nil) has accepted it. A 404 is
// ErrNotFound and a breaker success; a transport error, any other
// status, an unreadable body or one check rejects is a breaker failure,
// so a dead or broken peer stops being read after a few attempts. A
// read refused before sending is a refusal.
func (c *Client) get(ctx context.Context, peer, path, traceparent string, maxBytes int64, check func([]byte) error) (body []byte, err error) {
	ps, ok := c.peers[peer]
	if !ok {
		// Not reached through Owner or FetchAll: every ring node but Self
		// is a peer.
		return nil, refusal(fmt.Sprintf("cluster: unknown peer %q", peer))
	}
	if ps.inflight.Load() >= maxInflightProbes {
		return nil, refusal(fmt.Sprintf("cluster: peer %s at in-flight bound", peer))
	}
	if !ps.brk.Allow() {
		return nil, refusal(fmt.Sprintf("cluster: peer %s breaker open", peer))
	}
	ps.inflight.Add(1)
	defer ps.inflight.Add(-1)
	defer func() {
		if err == nil || err == ErrNotFound {
			ps.brk.Success()
		} else {
			ps.brk.Failure()
		}
	}()

	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+path, nil)
	if err != nil {
		return nil, err
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, ErrNotFound
	default:
		return nil, fmt.Errorf("cluster: peer %s returned %s for %s", peer, resp.Status, path)
	}
	body, err = io.ReadAll(io.LimitReader(resp.Body, maxBytes))
	if err == nil && check != nil {
		err = check(body)
	}
	return body, err
}

// Fetched is one peer's answer to FetchAll: the body of a 200, or the
// error — ErrNotFound for a 404, a refusal or failure otherwise, in the
// words /v1/fleet/stats serves.
type Fetched struct {
	Peer string
	Body []byte
	Err  error
}

// FetchAll reads path from every peer at once through get — the
// transport behind the fleet observability endpoints (each peer's
// /stats, and its fragment of a trace) — and returns one answer per
// peer, in peer URL order. A nil Client, a standalone node, has no
// peers to read.
func (c *Client) FetchAll(ctx context.Context, path string, maxBytes int64) []Fetched {
	if c == nil {
		return nil
	}
	out := make([]Fetched, len(c.urls))
	var wg sync.WaitGroup
	for i, peer := range c.urls {
		wg.Add(1)
		go func(f *Fetched) {
			defer wg.Done()
			f.Peer = peer
			f.Body, f.Err = c.get(ctx, peer, path, "", maxBytes, nil)
		}(&out[i])
	}
	wg.Wait()
	return out
}

// PeerHealth is one peer's reachability as the local breakers see it —
// what /healthz reports under "peers".
type PeerHealth struct {
	URL       string `json:"url"`
	Reachable bool   `json:"reachable"`
	Breaker   string `json:"breaker"`
}

// Health returns every peer's health, sorted by URL.
func (c *Client) Health() []PeerHealth {
	out := make([]PeerHealth, len(c.urls))
	for i, p := range c.urls {
		st := c.peers[p].brk.State()
		out[i] = PeerHealth{URL: p, Reachable: st != admission.BreakerOpen, Breaker: st.String()}
	}
	return out
}

// RingNodes is the fleet size the ring places keys over (self
// included).
func (c *Client) RingNodes() int { return c.ring.Len() }
