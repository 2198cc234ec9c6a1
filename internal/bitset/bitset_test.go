package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Count() != 0 || s.Len() != 130 {
		t.Fatalf("new set not empty")
	}
	for _, i := range []int{0, 63, 64, 65, 129} {
		s.Add(i)
	}
	if s.Count() != 5 {
		t.Errorf("Count = %d, want 5", s.Count())
	}
	for _, i := range []int{0, 63, 64, 65, 129} {
		if !s.Has(i) {
			t.Errorf("missing %d", i)
		}
	}
	if s.Has(1) || s.Has(128) || s.Has(-1) || s.Has(130) {
		t.Errorf("spurious membership")
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 4 {
		t.Errorf("remove failed")
	}
}

func TestFillRespectsLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Errorf("Fill on len %d gives count %d", n, s.Count())
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Add(i)
	}
	u := a.Clone()
	u.Union(b)
	diff := a.Clone()
	diff.Subtract(b)
	for i := 0; i < 100; i++ {
		even, byThree := i%2 == 0, i%3 == 0
		if u.Has(i) != (even || byThree) {
			t.Errorf("union wrong at %d", i)
		}
		if diff.Has(i) != (even && !byThree) {
			t.Errorf("subtract wrong at %d", i)
		}
	}
}

func TestMembersAndForEachAgree(t *testing.T) {
	s := New(300)
	rng := rand.New(rand.NewSource(42))
	for k := 0; k < 80; k++ {
		s.Add(rng.Intn(300))
	}
	// ForEach visits exactly the members Has reports, in ascending order.
	var members, walked []int
	for i := 0; i < s.Len(); i++ {
		if s.Has(i) {
			members = append(members, i)
		}
	}
	s.ForEach(func(i int) { walked = append(walked, i) })
	if len(members) != len(walked) {
		t.Fatalf("length mismatch %d vs %d", len(members), len(walked))
	}
	for i := range members {
		if members[i] != walked[i] {
			t.Fatalf("order mismatch at %d", i)
		}
	}
}

func TestNext(t *testing.T) {
	s := New(200)
	for _, i := range []int{5, 64, 190} {
		s.Add(i)
	}
	cases := [][2]int{{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 190}, {191, -1}, {-3, 5}, {500, -1}}
	for _, c := range cases {
		if got := s.Next(c[0]); got != c[1] {
			t.Errorf("Next(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

// TestWords: Words is the set's own storage, bit i%64 of word i/64.
func TestWords(t *testing.T) {
	s := New(130)
	s.Add(3)
	s.Add(129)
	w := s.Words()
	if len(w) != 3 || w[0] != 1<<3 || w[1] != 0 || w[2] != 1<<1 {
		t.Fatalf("Words = %#x", w)
	}
	w[1] = 1 << 6
	if !s.Has(70) {
		t.Error("a write through Words is not in the set")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(70), New(70)
	a.Add(69)
	if a.Equal(b) {
		t.Errorf("unequal sets compare equal")
	}
	b.Add(69)
	if !a.Equal(b) {
		t.Errorf("equal sets compare unequal")
	}
	if a.Equal(New(71)) {
		t.Errorf("different capacities compare equal")
	}
}

func TestString(t *testing.T) {
	s := New(10)
	s.Add(1)
	s.Add(5)
	if got := s.String(); got != "{1, 5}" {
		t.Errorf("String = %q", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, f := range []func(){func() { s.Add(10) }, func() { s.Add(-1) }, func() { s.Remove(10) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic on out-of-range access")
				}
			}()
			f()
		}()
	}
}

// TestQuickUnionCommutes: property — A∪B has exactly the members present
// in either input, regardless of the random inputs.
func TestQuickUnionCommutes(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := New(256), New(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		u1 := a.Clone()
		u1.Union(b)
		u2 := b.Clone()
		u2.Union(a)
		if !u1.Equal(u2) {
			return false
		}
		for i := 0; i < 256; i++ {
			if u1.Has(i) != (a.Has(i) || b.Has(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSubtractInverse: property — (A∪B)∖B ⊆ A and contains A∖B.
func TestQuickSubtractInverse(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := New(256), New(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		u := a.Clone()
		u.Union(b)
		u.Subtract(b)
		for i := 0; i < 256; i++ {
			if u.Has(i) != (a.Has(i) && !b.Has(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNewRowsIndependent: rows share storage but not contents — filling
// one row leaves its neighbours empty, and each row honours its length.
func TestNewRowsIndependent(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		rows := NewRows(3, n)
		if len(rows) != 3 {
			t.Fatalf("n=%d: got %d rows", n, len(rows))
		}
		rows[1].Fill()
		if rows[0].Count() != 0 || rows[2].Count() != 0 || rows[1].Count() != n {
			t.Errorf("n=%d: counts %d %d %d, want 0 %d 0",
				n, rows[0].Count(), rows[1].Count(), rows[2].Count(), n)
		}
		if n > 0 {
			rows[2].Add(n - 1)
			rows[0].Union(&rows[2])
			if !rows[0].Has(n-1) || rows[1].Len() != n {
				t.Errorf("n=%d: union across rows failed", n)
			}
		}
	}
}
