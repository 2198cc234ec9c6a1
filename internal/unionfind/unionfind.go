// Package unionfind implements disjoint sets with union by rank and path
// compression, augmented with per-set minimum and maximum "level" labels.
//
// This is the data structure the paper's complexity discussion (§3) uses to
// find, for each connected component of G_ind, the largest path length: each
// node is labelled with its level from the farthest leaf, sets track the
// min and max level seen, and the largest path length for a component is
// max-min+1. Its one user is core.ChancesUnionFind, which only ablation
// A2 selects.
package unionfind

// UF is a union-find structure over the elements [0, n).
type UF struct {
	parent []int
	rank   []int
	min    []int // minimum level label in the set rooted here
	max    []int // maximum level label in the set rooted here
	count  []int // number of elements in the set rooted here
	sets   int
}

// New creates n singleton sets. Every element starts with level label 0.
func New(n int) *UF {
	u := &UF{
		parent: make([]int, n),
		rank:   make([]int, n),
		min:    make([]int, n),
		max:    make([]int, n),
		count:  make([]int, n),
		sets:   n,
	}
	for i := range u.parent {
		u.parent[i] = i
		u.count[i] = 1
	}
	return u
}

// SetLevel assigns the level label of element i. It must be called before i
// is united with any other element to keep the min/max labels coherent.
func (u *UF) SetLevel(i, level int) {
	r := u.Find(i)
	if u.min[r] > level {
		u.min[r] = level
	}
	if u.max[r] < level {
		u.max[r] = level
	}
	if u.count[r] == 1 {
		u.min[r] = level
		u.max[r] = level
	}
}

// Find returns the canonical representative of i's set.
func (u *UF) Find(i int) int {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return i
}

// Union merges the sets containing a and b, combining their level ranges.
// It reports whether a merge happened (false if already united).
func (u *UF) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	if u.min[rb] < u.min[ra] {
		u.min[ra] = u.min[rb]
	}
	if u.max[rb] > u.max[ra] {
		u.max[ra] = u.max[rb]
	}
	u.count[ra] += u.count[rb]
	u.sets--
	return true
}

// Same reports whether a and b are in the same set.
func (u *UF) Same(a, b int) bool { return u.Find(a) == u.Find(b) }

// Sets returns the current number of disjoint sets.
func (u *UF) Sets() int { return u.sets }

// Size returns the number of elements in i's set.
func (u *UF) Size(i int) int { return u.count[u.Find(i)] }

// LevelRange returns the minimum and maximum level labels in i's set.
func (u *UF) LevelRange(i int) (min, max int) {
	r := u.Find(i)
	return u.min[r], u.max[r]
}

// PathLength returns the paper's largest-path-length estimate for i's set:
// max level − min level + 1.
func (u *UF) PathLength(i int) int {
	min, max := u.LevelRange(i)
	return max - min + 1
}
