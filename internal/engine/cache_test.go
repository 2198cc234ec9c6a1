package engine

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheSingleFlightSemantics(t *testing.T) {
	c := newCache(8, 2)
	k := Key{Block: 1, Opts: 2}

	e1, leader := c.lookup(k)
	if !leader {
		t.Fatal("first lookup must elect a leader")
	}
	e2, leader2 := c.lookup(k)
	if leader2 {
		t.Fatal("second lookup must not elect a second leader")
	}
	if e1 != e2 {
		t.Fatal("both lookups must share one entry")
	}
	if e2.completed() {
		t.Fatal("entry completed before the leader published")
	}
	e1.complete(&BlockResponse{Block: "p"}, nil)
	e3, leader3 := c.lookup(k)
	if leader3 || !e3.completed() || e3.resp.Block != "p" {
		t.Fatal("completed entry not served to a later lookup")
	}
}

func TestCacheRemoveIsEntrySpecific(t *testing.T) {
	c := newCache(8, 1)
	k := Key{Block: 7}
	e1, _ := c.lookup(k)
	c.remove(k, e1)
	if n := c.len(); n != 0 {
		t.Fatalf("len=%d after remove", n)
	}
	// remove of a stale entry must not evict a newer one under the key.
	e2, leader := c.lookup(k)
	if !leader {
		t.Fatal("lookup after remove must elect a new leader")
	}
	c.remove(k, e1) // stale
	if n := c.len(); n != 1 {
		t.Fatalf("stale remove evicted the live entry (len=%d)", n)
	}
	c.remove(k, e2)
	if n := c.len(); n != 0 {
		t.Fatalf("len=%d after live remove", n)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2, 1)
	a, b, d := Key{Block: 1}, Key{Block: 2}, Key{Block: 3}
	ea, _ := c.lookup(a)
	ea.complete(&BlockResponse{}, nil)
	eb, _ := c.lookup(b)
	eb.complete(&BlockResponse{}, nil)
	c.lookup(a)          // touch a: b is now the LRU
	ed, _ := c.lookup(d) // evicts b
	ed.complete(&BlockResponse{}, nil)
	if n := c.len(); n != 2 {
		t.Fatalf("len=%d, want capacity 2", n)
	}
	if _, leader := c.lookup(a); leader {
		t.Error("recently-touched entry was evicted")
	}
	if _, leader := c.lookup(b); !leader {
		t.Error("LRU entry survived past capacity")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newCache(-1, 4)
	k := Key{Block: 9}
	if _, leader := c.lookup(k); !leader {
		t.Fatal("disabled cache must make every caller a leader")
	}
	if _, leader := c.lookup(k); !leader {
		t.Fatal("disabled cache must never share entries")
	}
	if c.len() != 0 {
		t.Fatal("disabled cache holds entries")
	}
	c.remove(k, newEntry()) // must not panic
}

// TestCacheConcurrentLookups checks exactly one leader per key under
// contention and that the shards stay consistent (race detector food).
func TestCacheConcurrentLookups(t *testing.T) {
	c := newCache(128, 8)
	const keys = 16
	const per = 32
	leaders := make([]int, keys)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for i := 0; i < per; i++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				e, leader := c.lookup(Key{Block: uint64(k)})
				if leader {
					mu.Lock()
					leaders[k]++
					mu.Unlock()
					e.complete(&BlockResponse{Block: fmt.Sprint(k)}, nil)
				} else {
					<-e.done
					if e.resp.Block != fmt.Sprint(k) {
						t.Errorf("key %d: wrong entry", k)
					}
				}
			}(k)
		}
	}
	wg.Wait()
	for k, n := range leaders {
		if n != 1 {
			t.Errorf("key %d elected %d leaders, want 1", k, n)
		}
	}
}

func TestKeyWireFormRoundTrip(t *testing.T) {
	for _, k := range []Key{
		{},
		{Block: 1, Opts: 2},
		{Block: ^uint64(0), Opts: ^uint64(0)},
		{Block: 0xdeadbeefcafef00d, Opts: 0x0123456789abcdef},
	} {
		s := k.String()
		if len(s) != 34 || s[0] != 'b' {
			t.Fatalf("wire form %q: want 34 chars with 'b' prefix", s)
		}
		got, ok := ParseKey(s)
		if !ok || got != k {
			t.Fatalf("ParseKey(%q) = %+v, %v; want %+v", s, got, ok, k)
		}
	}
}

// TestParseKeyRejectsLegacy pins the migration contract: the retired
// program-granular wire form (two bare hex halves, no granularity
// prefix) must be structurally unparseable, never silently read as a
// block key.
func TestParseKeyRejectsLegacy(t *testing.T) {
	bad := []string{
		"",
		"0123456789abcdef-0123456789abcdef",  // legacy 33-char program form
		"p0123456789abcdef-0123456789abcdef", // wrong granularity prefix
		"b0123456789abcdef_0123456789abcdef", // wrong separator
		"b0123456789abcdeX-0123456789abcdef", // non-hex digit
		"b0123456789ABCDEF-0123456789abcdef", // uppercase is not canonical
		"b0123456789abcdef-0123456789abcde",  // short
		"b0123456789abcdef-0123456789abcdef0",
		"b 123456789abcdef-0123456789abcdef", // space accepted by naive Sscanf
		"b+123456789abcdef-0123456789abcdef",
	}
	for _, s := range bad {
		if k, ok := ParseKey(s); ok {
			t.Errorf("ParseKey(%q) accepted as %+v", s, k)
		}
	}
}
