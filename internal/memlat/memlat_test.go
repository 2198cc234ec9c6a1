package memlat

import (
	"math"
	"math/rand"
	"testing"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(7)) }

func sampleMean(m Model, n int) float64 {
	r := rng()
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(m.Sample(r))
	}
	return sum / float64(n)
}

func TestFixed(t *testing.T) {
	f := Fixed{Latency: 4}
	r := rng()
	for i := 0; i < 10; i++ {
		if f.Sample(r) != 4 {
			t.Fatalf("Fixed sampled != 4")
		}
	}
	if f.Mean() != 4 || f.Name() != "Fixed(4)" {
		t.Errorf("metadata wrong: %v %v", f.Mean(), f.Name())
	}
}

func TestCacheModel(t *testing.T) {
	c := Cache{HitRate: 0.80, HitLat: 2, MissLat: 10}
	if got, want := c.Mean(), 0.8*2+0.2*10; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %g, want %g", got, want)
	}
	if c.Name() != "L80(2,10)" {
		t.Errorf("Name = %q", c.Name())
	}
	r := rng()
	hits, misses := 0, 0
	for i := 0; i < 100000; i++ {
		switch c.Sample(r) {
		case 2:
			hits++
		case 10:
			misses++
		default:
			t.Fatalf("impossible latency")
		}
	}
	if frac := float64(hits) / 100000; math.Abs(frac-0.8) > 0.01 {
		t.Errorf("hit fraction = %g, want ~0.8", frac)
	}
	if got := sampleMean(c, 100000); math.Abs(got-c.Mean()) > 0.05 {
		t.Errorf("sample mean %g far from %g", got, c.Mean())
	}
}

func TestNormalModel(t *testing.T) {
	n := NewNormal(5, 2)
	if n.Name() != "N(5,2)" {
		t.Errorf("Name = %q", n.Name())
	}
	// Discretized+truncated mean should be near μ for μ/σ=2.5.
	if math.Abs(n.Mean()-5) > 0.2 {
		t.Errorf("Mean = %g, want ≈5", n.Mean())
	}
	if got := sampleMean(n, 200000); math.Abs(got-n.Mean()) > 0.05 {
		t.Errorf("sample mean %g far from model mean %g", got, n.Mean())
	}
	// Zero-based: no negative samples, and some spread.
	r := rng()
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		s := n.Sample(r)
		if s < 0 {
			t.Fatalf("negative latency %d", s)
		}
		seen[s] = true
	}
	if len(seen) < 8 {
		t.Errorf("suspiciously little spread: %d distinct values", len(seen))
	}
}

func TestNormalTruncationRaisesMean(t *testing.T) {
	// With μ=2, σ=5 a big chunk of mass is clipped at 0, raising the mean
	// above μ.
	n := NewNormal(2, 5)
	if n.Mean() <= 2 {
		t.Errorf("truncated mean %g should exceed μ=2", n.Mean())
	}
}

func TestNormalTinySigma(t *testing.T) {
	// A σ so small that every discretized weight underflows still gives
	// a distribution: the mass sits on the latency nearest μ, split
	// evenly when μ lies halfway between two. The last three have a σ
	// so small that 2σ² itself underflows to 0.
	for _, c := range []struct {
		spec string
		mean float64
	}{
		{"N(0.1,1e-10)", 0}, {"N(3.7,1e-9)", 4}, {"N(2.5,1e-3)", 2.5},
		{"N(0,1e-170)", 0}, {"N(0.5,1e-170)", 0.5}, {"L80-N(2,1e-200)", 2},
	} {
		m, err := ParseModel(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Mean(); got != c.mean {
			t.Errorf("%s mean = %g, want %g", c.spec, got, c.mean)
		}
	}
}

func TestMixedModel(t *testing.T) {
	m := NewMixed(0.80, 2, 30, 5)
	if m.Name() != "L80-N(30,5)" {
		t.Errorf("Name = %q", m.Name())
	}
	want := 0.8*2 + 0.2*m.Miss.Mean()
	if math.Abs(m.Mean()-want) > 1e-9 {
		t.Errorf("Mean = %g, want %g", m.Mean(), want)
	}
	// The paper quotes a 7.6-cycle mean for this configuration.
	if math.Abs(m.Mean()-7.6) > 0.1 {
		t.Errorf("Mean = %g, want ≈7.6 per the paper", m.Mean())
	}
	if got := sampleMean(m, 200000); math.Abs(got-m.Mean()) > 0.1 {
		t.Errorf("sample mean %g far from %g", got, m.Mean())
	}
}

func TestPaperSystems(t *testing.T) {
	systems := PaperSystems()
	if len(systems) != 12 {
		t.Fatalf("got %d systems, want 12", len(systems))
	}
	wantNames := []string{
		"L80(2,5)", "L80(2,10)", "L95(2,5)", "L95(2,10)",
		"N(2,2)", "N(3,2)", "N(5,2)", "N(2,5)", "N(3,5)", "N(5,5)", "N(30,5)",
		"L80-N(30,5)",
	}
	for i, sys := range systems {
		if sys.Model.Name() != wantNames[i] {
			t.Errorf("system %d = %q, want %q", i, sys.Model.Name(), wantNames[i])
		}
		if len(sys.OptLats) == 0 {
			t.Errorf("system %q has no optimistic latencies", sys.Model.Name())
		}
		for _, l := range sys.OptLats {
			if l < 1 {
				t.Errorf("system %q optimistic latency %g < 1", sys.Model.Name(), l)
			}
		}
	}
	// Cache systems carry hit time and effective access time.
	if l := systems[0].OptLats; len(l) != 2 || l[0] != 2 || l[1] != 2.6 {
		t.Errorf("L80(2,5) optimistic latencies = %v", l)
	}
}

func TestPaperOptimisticLatenciesSortedUnique(t *testing.T) {
	lats := PaperOptimisticLatencies()
	for i := 1; i < len(lats); i++ {
		if lats[i] <= lats[i-1] {
			t.Errorf("latencies not strictly ascending at %d", i)
		}
	}
	// Every latency appearing in PaperSystems must be in the Table 4 set.
	set := map[float64]bool{}
	for _, l := range lats {
		set[l] = true
	}
	for _, sys := range PaperSystems() {
		for _, l := range sys.OptLats {
			if !set[l] {
				t.Errorf("latency %g of %s missing from Table 4 set", l, sys.Model.Name())
			}
		}
	}
}

func TestSamplingDeterminism(t *testing.T) {
	n := NewNormal(3, 5)
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		if n.Sample(a) != n.Sample(b) {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}
