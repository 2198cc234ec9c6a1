package cluster

import (
	"fmt"
	"testing"
	"testing/quick"

	"bsched/internal/admission"
	"bsched/internal/engine"
)

func nodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://node-%d:8080", i)
	}
	return out
}

// Property (a): ownership is a pure function of (membership, key) — a
// ring built from the same node set in any order, duplicates included,
// maps every key to the same owner.
func TestRingOwnerStableUnderRebuild(t *testing.T) {
	nodes := nodeNames(5)
	ring := NewRing(nodes, 64)
	// Reverse order, with one node listed twice.
	var reversed []string
	for i := len(nodes) - 1; i >= 0; i-- {
		reversed = append(reversed, nodes[i])
	}
	other := NewRing(append(reversed, nodes[2]), 64)

	f := func(h uint64) bool {
		return ring.Owner(h, nil) == other.Owner(h, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property (b): removing (or adding) one of N nodes remaps only the
// keys the changed node owned — about K/N of K keys, never more than a
// small constant factor over that.
func TestRingMembershipChangeRemapsBoundedFraction(t *testing.T) {
	const replicas = 128
	f := func(seed uint64, nNodes uint8) bool {
		n := 3 + int(nNodes%6) // 3..8 nodes
		nodes := nodeNames(n)
		before := NewRing(nodes, replicas)
		removed := nodes[int(seed%uint64(n))]
		var rest []string
		for _, node := range nodes {
			if node != removed {
				rest = append(rest, node)
			}
		}
		after := NewRing(rest, replicas)

		const keys = 2000
		moved := 0
		for i := 0; i < keys; i++ {
			h := splitmix(seed + uint64(i)*0x9e3779b97f4a7c15)
			a, b := before.Owner(h, nil), after.Owner(h, nil)
			if a != b {
				// Only keys owned by the removed node may move, and they must
				// still resolve to a surviving node.
				if a != removed || b == removed {
					return false
				}
				moved++
			}
		}
		// Expected moved fraction is 1/n; allow 2.5x slack for hash variance.
		return moved <= keys*5/(2*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property (c): with 128 virtual nodes the keyspace share of every node
// stays within 2x of uniform over a 1k-key sample.
func TestRingDistributionWithinTwiceUniform(t *testing.T) {
	const (
		nNodes   = 4
		replicas = 128
		keys     = 1000
	)
	ring := NewRing(nodeNames(nNodes), replicas)
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		h := splitmix(uint64(i) * 0x9e3779b97f4a7c15)
		counts[ring.Owner(h, nil)]++
	}
	if len(counts) != nNodes {
		t.Fatalf("only %d of %d nodes own keys: %v", len(counts), nNodes, counts)
	}
	for node, c := range counts {
		if c > 2*keys/nNodes {
			t.Errorf("node %s owns %d of %d keys — more than 2x the uniform share (%d)",
				node, c, keys, keys/nNodes)
		}
	}
}

// The veto walk skips vetoed nodes, agrees across callers, and falls
// back deterministically when everything is vetoed.
func TestRingOwnerVeto(t *testing.T) {
	nodes := nodeNames(3)
	ring := NewRing(nodes, replicasForTest)
	for i := 0; i < 500; i++ {
		h := splitmix(uint64(i))
		plain := ring.Owner(h, nil)
		vetoed := ring.Owner(h, func(n string) bool { return n == plain })
		if vetoed == plain {
			t.Fatalf("veto walk returned the vetoed node %s for h=%#x", plain, h)
		}
		if !ring.nodes[vetoed] {
			t.Fatalf("veto walk returned a non-member %q", vetoed)
		}
		// A veto on some *other* node must not disturb this key's owner.
		other := ring.Owner(h, func(n string) bool { return n != plain && n != vetoed })
		if other != plain {
			t.Fatalf("vetoing a bystander moved owner %s -> %s", plain, other)
		}
	}
	// All vetoed: deterministic fallback to the unbounded owner.
	h := splitmix(42)
	if got := ring.Owner(h, func(string) bool { return true }); got != ring.Owner(h, nil) {
		t.Fatalf("all-vetoed fallback %q differs from unbounded owner", got)
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if got := NewRing(nil, replicasForTest).Owner(123, nil); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	r := NewRing([]string{"only"}, replicasForTest)
	f := func(h uint64) bool { return r.Owner(h, nil) == "only" }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

const replicasForTest = 32

// splitmix is a cheap well-mixed generator for synthetic key hashes so
// the properties are not artifacts of sequential inputs.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestOwnerIsSelfOrPeer: every key Owner resolves is self-owned or owned
// by a configured peer, with healthy and with vetoed peers, so Probe's
// unknown-peer branch is never reached through Owner. The config lists
// Self among the peers and one peer twice, as a fleet-wide -peers list
// does.
func TestOwnerIsSelfOrPeer(t *testing.T) {
	nodes := nodeNames(4)
	c, err := New(Config{Self: nodes[0], Peers: append(nodes, nodes[1])})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	check := func(vetoed string) {
		for i := uint64(0); i < 2000; i++ {
			key := engine.Key{Block: i * 0x9e3779b97f4a7c15, Opts: i}
			owner, self := c.Owner(key)
			if _, ok := c.peers[owner]; !self && !ok || owner == vetoed {
				t.Fatalf("vetoed %q: key %v owned by %q", vetoed, key, owner)
			}
		}
	}
	check("")
	for range admission.DefaultBreakerThreshold {
		c.peers[nodes[1]].brk.Failure()
	}
	check(nodes[1])
}
