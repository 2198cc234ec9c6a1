package unionfind

import (
	"math/rand"
	"testing"
)

// sets returns the number of disjoint sets in f: the number of roots.
func sets(f Forest) int {
	n := 0
	for v := range f {
		if f.Find(int32(v)) == int32(v) {
			n++
		}
	}
	return n
}

// size returns the number of elements in v's set.
func size(f Forest, v int32) int {
	n := 0
	for u := range f {
		if f.Same(v, int32(u)) {
			n++
		}
	}
	return n
}

// TestSingletons: New starts every element in a set of its own, and
// f[v] = v makes v a fresh singleton again once nothing links to it — the
// reset the credit pass does for each instruction it reuses the forest on.
func TestSingletons(t *testing.T) {
	f := New(5)
	if sets(f) != 5 {
		t.Fatalf("sets = %d, want 5", sets(f))
	}
	for i := int32(0); i < 5; i++ {
		if f.Find(i) != i || size(f, i) != 1 {
			t.Errorf("element %d not a singleton", i)
		}
	}
	f.Union(3, 4)
	f.Union(2, 4)
	for v := int32(2); v < 5; v++ {
		f[v] = v
	}
	if sets(f) != 5 || f.Same(2, 4) {
		t.Errorf("after reset: sets = %d, Same(2,4) = %v; want 5, false", sets(f), f.Same(2, 4))
	}
}

func TestUnionFind(t *testing.T) {
	f := New(6)
	if f.Union(2, 1) != 1 || f.Union(1, 0) != 0 {
		t.Fatalf("merged sets not rooted at their lowest element")
	}
	if r := f.Union(0, 2); r != 0 || sets(f) != 4 {
		t.Errorf("union of one set: root %d, %d sets; want 0, 4", r, sets(f))
	}
	if !f.Same(0, 2) || f.Same(0, 3) {
		t.Errorf("connectivity wrong")
	}
	if sets(f) != 4 || size(f, 1) != 3 {
		t.Errorf("sets=%d size=%d", sets(f), size(f, 1))
	}
}

// TestRandomAgainstNaive cross-checks connectivity against a naive
// labelling for random union sequences, and checks that every root is
// the lowest element of its set.
func TestRandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 64
	for trial := 0; trial < 20; trial++ {
		f := New(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for k := 0; k < 80; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			f.Union(int32(a), int32(b))
			relabel(label[a], label[b])
		}
		naive := map[int]bool{}
		for i := 0; i < n; i++ {
			naive[label[i]] = true
			lowest := i
			for j := 0; j < n; j++ {
				if f.Same(int32(i), int32(j)) != (label[i] == label[j]) {
					t.Fatalf("trial %d: Same(%d,%d) mismatch", trial, i, j)
				}
				if label[i] == label[j] {
					lowest = min(lowest, j)
				}
			}
			if r := f.Find(int32(i)); r != int32(lowest) {
				t.Fatalf("trial %d: Find(%d) = %d, want the set's lowest element %d", trial, i, r, lowest)
			}
		}
		if sets(f) != len(naive) {
			t.Fatalf("trial %d: sets=%d naive=%d", trial, sets(f), len(naive))
		}
	}
}
