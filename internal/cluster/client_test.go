package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bsched/internal/admission"
	"bsched/internal/engine"
)

// testKey is the key every probe case asks for.
var testKey = engine.Key{Block: 0x0123456789abcdef, Opts: 0xfedcba9876543210}

// blockFor is a minimal BlockResponse whose fingerprints match key.
func blockFor(key engine.Key) engine.BlockResponse {
	return engine.BlockResponse{
		Block:              "block b0\n  ret\n",
		Fingerprint:        fmt.Sprintf("%016x", key.Block),
		OptionsFingerprint: fmt.Sprintf("%016x", key.Opts),
	}
}

// stubPeer starts an httptest owner running h and a Client whose one
// peer it is. hits counts the requests that reached the stub.
func stubPeer(t *testing.T, h http.HandlerFunc) (c *Client, peer string, hits *atomic.Int64) {
	t.Helper()
	hits = new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		h(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := New(Config{Self: "http://self.invalid", Peers: []string{ts.URL}, ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, ts.URL, hits
}

// status answers every request with code and body.
func status(code int, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(code)
		fmt.Fprint(w, body)
	}
}

// jsonBody answers every request 200 with v as JSON.
func jsonBody(v any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(v)
	}
}

// tripBreaker opens peer's breaker.
func tripBreaker(c *Client, peer string) {
	for range admission.DefaultBreakerThreshold {
		c.peers[peer].brk.Failure()
	}
}

// TestProbeOutcomes: each answer an owner can give maps to one probe
// outcome, and the probe asks for the key's lookup path with the
// in-flight hold and the caller's traceparent.
func TestProbeOutcomes(t *testing.T) {
	other := engine.Key{Block: 1, Opts: testKey.Opts}
	for _, tc := range []struct {
		name string
		h    http.HandlerFunc
		want engine.ProbeOutcome
	}{
		{"hit", jsonBody(blockFor(testKey)), engine.ProbeOutcomeHit},
		{"404-miss", status(http.StatusNotFound, `{"error":"key not cached"}`), engine.ProbeOutcomeMiss},
		{"500-error", status(http.StatusInternalServerError, "boom"), engine.ProbeOutcomeError},
		{"undecodable-error", status(http.StatusOK, "{not json"), engine.ProbeOutcomeError},
		{"mismatch-error", jsonBody(blockFor(other)), engine.ProbeOutcomeError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var path, parent atomic.Value
			c, peer, hits := stubPeer(t, func(w http.ResponseWriter, r *http.Request) {
				path.Store(r.URL.RequestURI())
				parent.Store(r.Header.Get("traceparent"))
				tc.h(w, r)
			})
			const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
			resp, out := c.Probe(context.Background(), peer, testKey, tp)
			if out != tc.want {
				t.Fatalf("outcome %v, want %v", out, tc.want)
			}
			if (resp != nil) != (tc.want == engine.ProbeOutcomeHit) {
				t.Fatalf("response %+v with outcome %v", resp, out)
			}
			if resp != nil && !resp.Matches(testKey) {
				t.Errorf("hit response %+v does not match the key", resp)
			}
			if hits.Load() != 1 {
				t.Fatalf("%d requests reached the owner, want 1", hits.Load())
			}
			if want := "/v1/peer/lookup/" + testKey.String() + "?wait_ms=750"; path.Load() != want {
				t.Errorf("request %v, want %s", path.Load(), want)
			}
			if parent.Load() != tp {
				t.Errorf("traceparent %q, want %q", parent.Load(), tp)
			}
		})
	}
}

// TestProbeSkipSendsNothing: with the peer's breaker open, or its
// in-flight bound reached, or an owner that is no peer, a probe is
// skipped and no request reaches the owner.
func TestProbeSkipSendsNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(c *Client, peer string) string // returns the owner to probe
	}{
		{"breaker-open", func(c *Client, peer string) string { tripBreaker(c, peer); return peer }},
		{"inflight-bound", func(c *Client, peer string) string {
			c.peers[peer].inflight.Store(maxInflightProbes)
			return peer
		}},
		{"unknown-owner", func(c *Client, peer string) string { return "http://unknown.invalid" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, peer, hits := stubPeer(t, jsonBody(blockFor(testKey)))
			owner := tc.block(c, peer)
			if resp, out := c.Probe(context.Background(), owner, testKey, ""); out != engine.ProbeOutcomeSkip || resp != nil {
				t.Fatalf("outcome %v response %v, want skip and none", out, resp)
			}
			if hits.Load() != 0 {
				t.Fatalf("%d requests reached the owner, want 0", hits.Load())
			}
		})
	}
}

// TestProbeBadBodyIsOneFailure: a 200 whose body does not decode counts
// exactly one breaker failure and no success. Threshold 2: after the
// probe one more failure must trip the breaker, so the probe left one
// failure standing. Then, half-open, a second such probe must re-open
// it: a success recorded before the failure would have closed it.
func TestProbeBadBodyIsOneFailure(t *testing.T) {
	c, peer, _ := stubPeer(t, status(http.StatusOK, "{not json"))
	now := time.Unix(0, 0)
	var moves []string
	c.peers[peer].brk = admission.NewBreaker(admission.BreakerConfig{
		Threshold: 2,
		Cooldown:  time.Second,
		Now:       func() time.Time { return now },
		OnTransition: func(from, to admission.BreakerState) {
			moves = append(moves, from.String()+">"+to.String())
		},
	})
	brk := c.peers[peer].brk
	if _, out := c.Probe(context.Background(), peer, testKey, ""); out != engine.ProbeOutcomeError {
		t.Fatalf("outcome %v, want error", out)
	}
	if brk.State() != admission.BreakerClosed {
		t.Fatalf("one bad body left the breaker %v, want closed", brk.State())
	}
	brk.Failure()
	if brk.State() != admission.BreakerOpen {
		t.Fatalf("one more failure left the breaker %v: the bad body counted no failure", brk.State())
	}
	now = now.Add(time.Second)
	if _, out := c.Probe(context.Background(), peer, testKey, ""); out != engine.ProbeOutcomeError {
		t.Fatalf("half-open outcome %v, want error", out)
	}
	want := []string{"closed>open", "open>half-open", "half-open>open"}
	if fmt.Sprint(moves) != fmt.Sprint(want) {
		t.Fatalf("breaker moves %v, want %v", moves, want)
	}
}

// fetch reads path from the client's one peer through the fan-out.
func fetch(c *Client, peer, path string) ([]byte, error) {
	f := c.FetchAll(context.Background(), path, 1<<10)
	if len(f) != 1 || f[0].Peer != peer {
		panic(fmt.Sprintf("FetchAll answered %+v, want one answer from %s", f, peer))
	}
	return f[0].Body, f[0].Err
}

// TestFetch: the fan-out transport returns a 200's body up to the cap,
// reads a 404 as ErrNotFound with breaker success, and names every
// other failure in the error strings /v1/fleet/stats serves.
func TestFetch(t *testing.T) {
	t.Run("200-body", func(t *testing.T) {
		c, peer, _ := stubPeer(t, status(http.StatusOK, `[{"name":"x"}]`))
		body, err := fetch(c, peer, "/stats")
		if err != nil || string(body) != `[{"name":"x"}]` {
			t.Fatalf("body %q err %v", body, err)
		}
	})
	t.Run("body-cap", func(t *testing.T) {
		c, peer, _ := stubPeer(t, status(http.StatusOK, string(make([]byte, 4<<10))))
		body, err := fetch(c, peer, "/stats")
		if err != nil || len(body) != 1<<10 {
			t.Fatalf("%d bytes err %v, want the 1 KiB cap", len(body), err)
		}
	})
	t.Run("404-not-found", func(t *testing.T) {
		c, peer, _ := stubPeer(t, status(http.StatusNotFound, "{}"))
		c.peers[peer].brk = admission.NewBreaker(admission.BreakerConfig{Threshold: 2})
		brk := c.peers[peer].brk
		brk.Failure()
		if _, err := fetch(c, peer, "/v1/traces/x"); err != ErrNotFound {
			t.Fatalf("err %v, want ErrNotFound", err)
		}
		// A success cleared the standing failure, so one more does not trip.
		brk.Failure()
		if brk.State() != admission.BreakerClosed {
			t.Fatal("a 404 did not count as a breaker success")
		}
	})
	t.Run("500-error", func(t *testing.T) {
		c, peer, _ := stubPeer(t, status(http.StatusInternalServerError, "boom"))
		c.peers[peer].brk = admission.NewBreaker(admission.BreakerConfig{Threshold: 1})
		_, err := fetch(c, peer, "/stats")
		if want := fmt.Sprintf("cluster: peer %s returned 500 Internal Server Error for /stats", peer); err == nil || err.Error() != want {
			t.Fatalf("err %v, want %s", err, want)
		}
		if c.peers[peer].brk.State() != admission.BreakerOpen {
			t.Fatal("a 500 did not count as a breaker failure")
		}
	})
	t.Run("breaker-open", func(t *testing.T) {
		c, peer, hits := stubPeer(t, status(http.StatusOK, "{}"))
		tripBreaker(c, peer)
		_, err := fetch(c, peer, "/stats")
		if want := fmt.Sprintf("cluster: peer %s breaker open", peer); err == nil || err.Error() != want || hits.Load() != 0 {
			t.Fatalf("err %v after %d requests, want %s and none", err, hits.Load(), want)
		}
	})
	t.Run("inflight-bound", func(t *testing.T) {
		c, peer, hits := stubPeer(t, status(http.StatusOK, "{}"))
		c.peers[peer].inflight.Store(maxInflightProbes)
		_, err := fetch(c, peer, "/stats")
		if want := fmt.Sprintf("cluster: peer %s at in-flight bound", peer); err == nil || err.Error() != want || hits.Load() != 0 {
			t.Fatalf("err %v after %d requests, want %s and none", err, hits.Load(), want)
		}
	})
	t.Run("unknown-peer", func(t *testing.T) {
		// FetchAll reads only configured peers, so ask the one GET directly.
		c, _, _ := stubPeer(t, status(http.StatusOK, "{}"))
		_, err := c.get(context.Background(), "http://unknown.invalid", "/stats", "", 1<<10, nil)
		if want := `cluster: unknown peer "http://unknown.invalid"`; err == nil || err.Error() != want {
			t.Fatalf("err %v, want %s", err, want)
		}
	})
}

// TestFetchAllPeerOrder: FetchAll asks every peer at once and answers in
// peer URL order, whatever order the answers arrive in. The first
// peer's stub waits until every peer has been asked, so a sequential
// fan-out would time out on it.
func TestFetchAllPeerOrder(t *testing.T) {
	const n = 3
	var asked sync.WaitGroup
	asked.Add(n)
	var urls []string
	want := map[string]string{} // peer URL → body, "" for its 404
	for i := range n {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			asked.Done()
			if i == 0 {
				asked.Wait()
			}
			if i == 1 {
				w.WriteHeader(http.StatusNotFound)
				return
			}
			fmt.Fprintf(w, "node %d", i)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		if i != 1 {
			want[ts.URL] = fmt.Sprintf("node %d", i)
		}
	}
	c, err := New(Config{Self: "http://self.invalid", Peers: []string{urls[2], urls[0], urls[1]}, ProbeTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	got := c.FetchAll(context.Background(), "/stats", 1<<10)
	sort.Strings(urls)
	if len(got) != n {
		t.Fatalf("%d answers, want %d", len(got), n)
	}
	for i, f := range got {
		if f.Peer != urls[i] {
			t.Fatalf("answer %d from %s, want %s", i, f.Peer, urls[i])
		}
		if body, ok := want[f.Peer]; string(f.Body) != body || (f.Err == ErrNotFound) == ok {
			t.Errorf("%s answered %q, %v; want %q", f.Peer, f.Body, f.Err, body)
		}
	}
}
