// Package bitset provides a dense, fixed-capacity bit set used by the
// dependence-graph analyses (transitive closures, the independent sets
// G_ind of the balanced weight pass).
//
// The zero value of Set is an empty set of capacity 0; use New to create a
// set able to hold indices in [0, n).
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over the indices [0, n) fixed at creation.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set able to hold indices in [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewRows returns count empty sets of capacity n that share one backing
// array, so a per-node family of sets (a DAG's transitive closures, say)
// costs two allocations rather than two per set. The rows are
// independent sets; only their storage is shared.
func NewRows(count, n int) []Set {
	if n < 0 {
		n = 0
	}
	w := (n + wordBits - 1) / wordBits
	words := make([]uint64, count*w)
	rows := make([]Set, count)
	for i := range rows {
		rows[i] = Set{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
	}
	return rows
}

// Words returns the set's storage: element i is bit i%64 of word i/64,
// and the bits at n and above are zero. It is the set itself, not a
// copy, for word-parallel loops over several sets at once; writes to it
// must keep the bits at n and above zero.
func (s *Set) Words() []uint64 { return s.words }

// Len returns the capacity n the set was created with.
func (s *Set) Len() int { return s.n }

// Add inserts i into the set. It panics if i is out of range.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set. It panics if i is out of range.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Has reports whether i is in the set. Out-of-range indices report false.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every index in [0, n).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// Union adds every element of o to s. The sets must have equal capacity.
func (s *Set) Union(o *Set) {
	s.checkSame(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Intersect removes from s every element not in o.
func (s *Set) Intersect(o *Set) {
	s.checkSame(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// Subtract removes from s every element of o.
func (s *Set) Subtract(o *Set) {
	s.checkSame(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Equal reports whether s and o contain the same elements.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Members returns the elements in ascending order.
func (s *Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Next returns the smallest element >= i, or -1 if there is none.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// String renders the set as "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index " + strconv.Itoa(i) + " out of range [0," + strconv.Itoa(s.n) + ")")
	}
}

func (s *Set) checkSame(o *Set) {
	if s.n != o.n {
		panic("bitset: capacity mismatch")
	}
}

// trim clears any bits above n-1 that Fill may have set.
func (s *Set) trim() {
	if s.n%wordBits == 0 {
		return
	}
	last := len(s.words) - 1
	if last >= 0 {
		s.words[last] &= (1 << (uint(s.n) % wordBits)) - 1
	}
}
