// Package unionfind implements the disjoint-set forest behind the
// balanced-scheduling credit pass (bsched/internal/core): a flat int32
// parent array in which every set is rooted at its lowest element.
//
// core labels each instruction's G_ind components with it. Because a root
// is its set's lowest element, an ascending scan over the elements meets
// every root before the rest of its set, so one scan both lists the
// components in order and reduces per-component values onto their roots.
package unionfind

// Forest is a disjoint-set forest over the elements [0, len(f)): f[v] is
// v's parent and a root is its own parent, so f[v] = v makes a fresh v a
// singleton. Union always links the higher root under the lower one.
type Forest []int32

// New returns a forest of n singleton sets.
func New(n int) Forest {
	f := make(Forest, n)
	for v := range f {
		f[v] = int32(v)
	}
	return f
}

// Find returns the root of v's set, halving the path as it goes.
func (f Forest) Find(v int32) int32 {
	for f[v] != v {
		f[v] = f[f[v]]
		v = f[v]
	}
	return v
}

// Union merges the sets of a and b and returns the merged set's root: the
// lower of their two roots.
func (f Forest) Union(a, b int32) int32 {
	ra, rb := f.Find(a), f.Find(b)
	switch {
	case rb < ra:
		f[ra] = rb
		return rb
	case ra < rb:
		f[rb] = ra
	}
	return ra
}

// Same reports whether a and b are in the same set.
func (f Forest) Same(a, b int32) bool { return f.Find(a) == f.Find(b) }
