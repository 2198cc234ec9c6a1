package engine

import (
	"testing"
	"testing/quick"
)

// refModel is the obviously-correct single-shard LRU the real cache is
// checked against: a map for membership plus a slice in recency order
// (index 0 = most recently used).
type refModel struct {
	cap   int
	order []Key
	m     map[Key]*entry
}

func newRefModel(capacity int) *refModel {
	return &refModel{cap: capacity, m: make(map[Key]*entry)}
}

func (r *refModel) touch(k Key) {
	for i, o := range r.order {
		if o == k {
			r.order = append(append([]Key{k}, r.order[:i]...), r.order[i+1:]...)
			return
		}
	}
}

// lookup mirrors cache.lookup against the model. It returns the leader
// flag the model predicts.
func (r *refModel) lookup(k Key) (e *entry, leader bool) {
	if e, ok := r.m[k]; ok {
		r.touch(k)
		return e, false
	}
	e = newEntry()
	r.m[k] = e
	r.order = append([]Key{k}, r.order...)
	for len(r.order) > r.cap {
		oldest := r.order[len(r.order)-1]
		r.order = r.order[:len(r.order)-1]
		delete(r.m, oldest)
	}
	return e, true
}

func (r *refModel) remove(k Key, e *entry) {
	if cur, ok := r.m[k]; ok && cur == e {
		delete(r.m, k)
		for i, o := range r.order {
			if o == k {
				r.order = append(r.order[:i], r.order[i+1:]...)
				return
			}
		}
	}
}

// propOps decodes one fuzz byte stream into a cache-op script: the low
// bits of each byte pick a key from a small working set (so collisions
// and revisits are common) and the high bits pick the operation.
type propOp struct {
	kind byte // 0,1 = lookup; 2 = remove-current; 3 = remove-stale
	key  Key
}

func decodeOps(script []byte) []propOp {
	ops := make([]propOp, 0, len(script))
	for _, b := range script {
		k := Key{Block: uint64(b & 0x07), Opts: uint64(b>>3) & 0x01}
		ops = append(ops, propOp{kind: (b >> 4) & 0x03, key: k})
	}
	return ops
}

// TestCacheShardMatchesModel drives a one-shard cache and the reference
// model through the same randomly generated op scripts and demands they
// agree on everything observable:
//
//   - leader election: a lookup is a leader exactly when the key was
//     absent (single-flight leader uniqueness — at most one live entry
//     per key, so at most one leader until that entry is removed);
//   - entry identity: hits return the same *entry the leader installed;
//   - capacity: the shard never holds more than cap entries;
//   - exact LRU order: walking the shard's list front-to-back equals the
//     model's recency order, so the MRU entry is never the eviction
//     victim.
func TestCacheShardMatchesModel(t *testing.T) {
	const capacity = 4
	check := func(script []byte) bool {
		c := newCache(capacity, 1)
		ref := newRefModel(capacity)
		// lastEntry tracks, per key, an entry the cache handed out at some
		// point — possibly since evicted — so remove can exercise both its
		// "current entry" and "stale entry is a no-op" branches.
		lastEntry := make(map[Key]*entry)
		for i, op := range decodeOps(script) {
			switch op.kind {
			case 2: // remove the entry the model says is current
				if e, ok := ref.m[op.key]; ok {
					c.remove(op.key, e)
					ref.remove(op.key, e)
				}
			case 3: // remove with a stale (or foreign) entry: must be a no-op
				if e := lastEntry[op.key]; e != nil && ref.m[op.key] != e {
					c.remove(op.key, e)
					ref.remove(op.key, e)
				}
			default:
				e, leader := c.lookup(op.key)
				wantE, wantLeader := ref.lookup(op.key)
				if leader != wantLeader {
					t.Logf("op %d: lookup(%v) leader=%v, model says %v", i, op.key, leader, wantLeader)
					return false
				}
				if !leader && e != wantE {
					t.Logf("op %d: hit on %v returned a different entry than the leader installed", i, op.key)
					return false
				}
				if leader {
					// The model adopts the cache's entry pointer so identity
					// comparisons stay meaningful.
					ref.m[op.key] = e
				}
				lastEntry[op.key] = e
			}
			if n := c.len(); n > capacity {
				t.Logf("op %d: %d entries resident, capacity %d", i, n, capacity)
				return false
			}
			if !shardOrderEquals(c, ref.order) {
				t.Logf("op %d: LRU order diverged: cache=%v model=%v", i, shardOrder(c), ref.order)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// shardOrder walks shard 0's list front (MRU) to back (LRU).
func shardOrder(c *cache) []Key {
	s := &c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Key
	for el := s.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheItem).key)
	}
	return out
}

func shardOrderEquals(c *cache, want []Key) bool {
	got := shardOrder(c)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestCacheSingleFlightLeaderUnique is the concurrency side of leader
// uniqueness: many goroutines look up the same key at once; exactly one
// may be the leader, and every loser must receive the leader's entry.
func TestCacheSingleFlightLeaderUnique(t *testing.T) {
	for round := 0; round < 50; round++ {
		c := newCache(8, 4)
		k := Key{Block: uint64(round)}
		const racers = 16
		entries := make(chan *entry, racers)
		leaders := make(chan *entry, racers)
		start := make(chan struct{})
		for i := 0; i < racers; i++ {
			go func() {
				<-start
				e, leader := c.lookup(k)
				// The leader reports itself before its entry, so once every
				// entry has arrived len(leaders) is final.
				if leader {
					leaders <- e
				}
				entries <- e
			}()
		}
		close(start)
		var first *entry
		for i := 0; i < racers; i++ {
			e := <-entries
			if first == nil {
				first = e
			} else if e != first {
				t.Fatal("racers received different entries for one key")
			}
		}
		if len(leaders) != 1 {
			t.Fatalf("%d leaders elected, want exactly 1", len(leaders))
		}
		if <-leaders != first {
			t.Fatal("the leader's entry is not the shared entry")
		}
	}
}
