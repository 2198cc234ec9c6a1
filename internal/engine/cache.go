package engine

import (
	"container/list"
	"fmt"
	"sync"
)

// Key addresses one compiled block by content: the block's fingerprint
// and a fingerprint of every schedule-relevant option. Two requests with
// equal keys are guaranteed (up to 64+64-bit hash collisions) to want
// the same block schedule — blocks compile independently, so two
// programs sharing a block share the compiled result under the same
// key. The same key identifies the compilation fleet-wide: the cluster
// layer's consistent-hash ring hashes Keys to owner nodes.
type Key struct {
	Block uint64
	Opts  uint64
}

// String renders the key in the canonical wire form used by the peer
// protocol URLs: a "b" granularity prefix (block), then two 16-digit
// lowercase hex halves joined by a dash. The prefix is deliberate: the
// pre-block wire form was the bare 33-character program-keyed shape, and
// prefixing makes every legacy key structurally unparseable instead of
// silently aliasing a program fingerprint to a block fingerprint.
func (k Key) String() string {
	return fmt.Sprintf("b%016x-%016x", k.Block, k.Opts)
}

// ParseKey parses the wire form produced by Key.String. Legacy
// program-granular keys (no "b" prefix) are rejected: a program
// fingerprint is not a block fingerprint, and serving one as the other
// would hand back the wrong schedule.
func ParseKey(s string) (Key, bool) {
	var k Key
	if len(s) != 34 || s[0] != 'b' || s[17] != '-' {
		return k, false
	}
	for _, half := range []string{s[1:17], s[18:]} {
		for _, c := range half {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				return k, false
			}
		}
	}
	if _, err := fmt.Sscanf(s[1:17], "%016x", &k.Block); err != nil {
		return k, false
	}
	if _, err := fmt.Sscanf(s[18:], "%016x", &k.Opts); err != nil {
		return k, false
	}
	return k, true
}

// Hash mixes both halves of the key into one 64-bit value for consistent
// hashing. The halves are already sha256-derived, but a final mix keeps
// ring placement independent of either half alone.
func (k Key) Hash() uint64 {
	h := k.Block ^ (k.Opts * 0x9e3779b97f4a7c15)
	// splitmix64 finalizer
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// entry is one cache slot — one block's compilation. It is created
// before the compilation runs and completed exactly once (by settle, or
// by install for a peer's offer); waiters block on done. After done is closed, resp and err are
// immutable, so concurrent readers need no lock.
type entry struct {
	done chan struct{}
	resp *BlockResponse
	err  error
}

func newEntry() *entry { return &entry{done: make(chan struct{})} }

// complete publishes the outcome and releases every waiter.
func (e *entry) complete(resp *BlockResponse, err error) {
	e.resp, e.err = resp, err
	close(e.done)
}

// completed reports whether the entry has already been published (a
// cache hit rather than coalescing onto an in-flight leader).
func (e *entry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// cache is a sharded, capacity-bounded, content-addressed map from Key
// to *entry with built-in single-flight semantics: lookup either finds
// an existing entry (completed → cache hit, in-flight → coalesce) or
// atomically installs a fresh one and names the caller leader. Sharding
// keeps lock hold times short under concurrent clients; each shard runs
// an independent LRU.
type cache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu  sync.Mutex
	cap int        // max entries in this shard
	ll  *list.List // front = most recent; values are *cacheItem
	m   map[Key]*list.Element
}

type cacheItem struct {
	key Key
	e   *entry
}

// newCache builds a cache of roughly capacity entries split over shards.
// capacity <= 0 disables caching entirely (every lookup is a leader with
// a detached entry — single-flight is off too, which is what a
// cache-disabled benchmark wants).
func newCache(capacity, shards int) *cache {
	if capacity <= 0 {
		return &cache{}
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	c := &cache{shards: make([]cacheShard, shards)}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i] = cacheShard{cap: per, ll: list.New(), m: make(map[Key]*list.Element)}
	}
	return c
}

func (c *cache) disabled() bool { return len(c.shards) == 0 }

func (c *cache) shard(k Key) *cacheShard {
	// Mix both halves so blocks compiled under many option sets spread
	// across shards.
	h := k.Block ^ (k.Opts * 0x9e3779b97f4a7c15)
	return &c.shards[h%uint64(len(c.shards))]
}

// lookup returns the entry for k, creating and installing a fresh one
// when absent. leader is true when the caller installed the entry and
// must therefore run (and publish) the compilation.
func (c *cache) lookup(k Key) (e *entry, leader bool) {
	if c.disabled() {
		return newEntry(), true
	}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok {
		s.ll.MoveToFront(el)
		return el.Value.(*cacheItem).e, false
	}
	e = newEntry()
	s.m[k] = s.ll.PushFront(&cacheItem{key: k, e: e})
	s.evictLocked()
	return e, true
}

// peek returns the entry for k if one is resident, never installing a
// fresh one — the read the peer protocol's lookup endpoint needs, where
// the caller holds no program text and so could never act as a leader.
func (c *cache) peek(k Key) (*entry, bool) {
	if c.disabled() {
		return nil, false
	}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[k]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheItem).e, true
}

// install inserts an already-completed entry for k — how a peer's
// offered compilation lands in the owner's cache. It reports false
// without touching the cache when any entry (completed or in-flight)
// already exists for k: an in-flight leader will complete its own entry,
// and racing a second complete against it would panic.
func (c *cache) install(k Key, resp *BlockResponse) bool {
	if c.disabled() {
		return false
	}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[k]; ok {
		return false
	}
	e := newEntry()
	e.complete(resp, nil)
	s.m[k] = s.ll.PushFront(&cacheItem{key: k, e: e})
	s.evictLocked()
	return true
}

// evictLocked trims the shard back to capacity, oldest first.
func (s *cacheShard) evictLocked() {
	for s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.m, oldest.Value.(*cacheItem).key)
	}
}

// settle publishes a leader's outcome and releases every waiter. An
// error, or a response only its own request may use (not cacheable),
// first leaves the cache, so a completed entry a later lookup finds
// always holds a response servable to anyone; the waiters already
// holding e still observe the outcome.
func (c *cache) settle(k Key, e *entry, resp *BlockResponse, err error) {
	if err != nil || !resp.cacheable() {
		c.remove(k, e)
	}
	e.complete(resp, err)
}

// remove drops k if it still maps to e.
func (c *cache) remove(k Key, e *entry) {
	if c.disabled() {
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[k]; ok && el.Value.(*cacheItem).e == e {
		s.ll.Remove(el)
		delete(s.m, k)
	}
}

// len reports the number of resident entries across all shards.
func (c *cache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
