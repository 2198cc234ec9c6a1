// Package cluster turns N independent bschedd daemons into a fleet
// that converges on one compiled copy per schedule-cache key.
//
// Placement is consistent hashing over the nodes' advertised URLs: each
// node is hashed onto a ring at Replicas virtual points, and a cache
// key's owner is the first virtual point clockwise of the key's hash.
// Keying by the cache entry (ir.Fingerprint + options fingerprint)
// rather than by the requester follows the memory-constrained
// scheduling literature: the expensive object is the compiled schedule,
// so the schedule — not the client — decides where work lands. Because
// only the node set, not the request stream, positions the ring,
// adding or removing one of N nodes moves ~K/N of K keys and leaves
// the rest untouched.
//
// The bounded-load variant (Owner's walk) keeps the decentralization
// honest under failure: when a key's owner is vetoed — its circuit
// breaker open, say — ownership falls to the next distinct node
// clockwise, so the fleet degrades to N-1 nodes instead of orphaning
// the dead node's key range. Every node applies the same veto to the
// same walk, so probes and offers keep agreeing on the stand-in owner.
//
// Client is a node's side of the peer protocol. Every read of a peer —
// the lookup probe and the fleet views' FetchAll — is one budgeted GET
// under the peer's in-flight bound, its breaker and the probe timeout;
// the write-behind offer PUT is the one write (docs/CLUSTER.md).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultReplicas is the virtual-node count per real node when
// Config.Replicas is zero. 128 points per node keeps the keyspace
// share of each node within ~2× of uniform (see the ring property
// tests).
const DefaultReplicas = 128

// Ring is a consistent-hash ring over a fixed set of node names,
// immutable after NewRing and so safe for concurrent use. Membership is
// static (docs/CLUSTER.md): a fleet whose node list changes restarts
// with the new list.
type Ring struct {
	nodes  map[string]bool
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing places each distinct node of nodes on the ring at replicas
// virtual points; replicas <= 0 means DefaultReplicas. The ring depends
// on the set of nodes alone, not on their order.
func NewRing(nodes []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{nodes: make(map[string]bool, len(nodes))}
	for _, node := range nodes {
		if r.nodes[node] {
			continue
		}
		r.nodes[node] = true
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(node, i), node: node})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// Len is the number of real (not virtual) nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner maps a key hash to its owning node: the first virtual point at
// or clockwise of h, with the bounded-load veto applied — while
// veto(node) is true the walk continues to the next *distinct* node.
// A nil veto (or one that vetoes everything) degenerates to plain
// consistent hashing; an empty ring returns "".
func (r *Ring) Owner(h uint64, veto func(node string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	first := r.points[i].node
	if veto == nil || !veto(first) {
		return first
	}
	seen := map[string]bool{first: true}
	for j := 1; j < len(r.points) && len(seen) < len(r.nodes); j++ {
		n := r.points[(i+j)%len(r.points)].node
		if seen[n] {
			continue
		}
		if !veto(n) {
			return n
		}
		seen[n] = true
	}
	// Everything vetoed: fall back to the unbounded owner so the caller
	// still gets a deterministic answer.
	return first
}

// pointHash positions one virtual node. sha256 over "node#i" gives
// well-mixed, platform-independent placement; the first 8 bytes are the
// ring coordinate.
func pointHash(node string, replica int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", node, replica)))
	return binary.BigEndian.Uint64(sum[:8])
}
