package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g, want 5", m)
	}
	if Mean(nil) != 0 {
		t.Errorf("Mean(nil) = %g, want 0", Mean(nil))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {2.5, 1.1}, {97.5, 4.9},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestBootstrapMeansProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	samples := make([]float64, 30)
	for i := range samples {
		samples[i] = 100 + rng.Float64()*10
	}
	means := BootstrapMeans(samples, 100, rng)
	if len(means) != 100 {
		t.Fatalf("got %d means", len(means))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range means {
		lo, hi = math.Min(lo, m), math.Max(hi, m)
	}
	if lo < 100 || hi > 110 {
		t.Errorf("bootstrap means outside sample range: [%g, %g]", lo, hi)
	}
	// The grand mean of bootstrap means should be close to the sample mean.
	if diff := math.Abs(Mean(means) - Mean(samples)); diff > 1.0 {
		t.Errorf("bootstrap grand mean off by %g", diff)
	}
}

func TestPairedImprovement(t *testing.T) {
	base := []float64{100, 100, 100, 100}
	new_ := []float64{90, 80, 95, 85}
	im := PairedImprovement(base, new_)
	if math.Abs(im.Mean-12.5) > 1e-9 {
		t.Errorf("Mean = %g, want 12.5", im.Mean)
	}
	if im.Lo > im.Mean || im.Hi < im.Mean {
		t.Errorf("CI [%g,%g] does not bracket mean %g", im.Lo, im.Hi, im.Mean)
	}
	if im.BaseMean != 100 || math.Abs(im.NewMean-87.5) > 1e-9 {
		t.Errorf("runtime means wrong: %+v", im)
	}
	if im.String() == "" {
		t.Errorf("empty String()")
	}
}

func TestPairedImprovementSign(t *testing.T) {
	// Slower "new" must report negative improvement.
	im := PairedImprovement([]float64{100, 100}, []float64{110, 120})
	if im.Mean >= 0 {
		t.Errorf("regression not negative: %g", im.Mean)
	}
}

// TestQuickPercentileWithinRange: property — any percentile of any
// non-empty sorted slice lies within [min, max].
func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p = math.Mod(math.Abs(p), 100)
		xs := append([]float64(nil), raw...)
		sort.Float64s(xs)
		got := Percentile(xs, p)
		return got >= xs[0]-1e-9 && got <= xs[len(xs)-1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickImprovementScaling: property — if every "new" runtime is the
// baseline scaled by a constant c, the improvement is exactly (1−c)·100
// and the confidence interval collapses onto it.
func TestQuickImprovementScaling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(20)
		c := 0.5 + rng.Float64() // scale in [0.5, 1.5)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = 50 + rng.Float64()*100
			b[i] = a[i] * c
		}
		im := PairedImprovement(a, b)
		want := (1 - c) * 100
		return math.Abs(im.Mean-want) < 1e-9 &&
			math.Abs(im.Lo-want) < 1e-9 && math.Abs(im.Hi-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickImprovementSelfZero: property — comparing a runtime
// distribution to itself yields exactly zero improvement.
func TestQuickImprovementSelfZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		a := make([]float64, n)
		for i := range a {
			a[i] = 1 + rng.Float64()*1000
		}
		im := PairedImprovement(a, a)
		return im.Mean == 0 && im.Lo == 0 && im.Hi == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScaleAndAddInto(t *testing.T) {
	xs := []float64{1, 2, 3}
	Scale(xs, 2)
	if xs[2] != 6 {
		t.Errorf("Scale failed: %v", xs)
	}
	dst := []float64{1, 1, 1}
	AddInto(dst, xs)
	if dst[0] != 3 || dst[2] != 7 {
		t.Errorf("AddInto failed: %v", dst)
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty percentile", func() { Percentile(nil, 50) })
	mustPanic("empty bootstrap", func() { BootstrapMeans(nil, 10, rand.New(rand.NewSource(1))) })
	mustPanic("length mismatch", func() { PairedImprovement([]float64{1}, []float64{1, 2}) })
	mustPanic("zero baseline", func() { PairedImprovement([]float64{0}, []float64{1}) })
	mustPanic("addinto mismatch", func() { AddInto([]float64{1}, []float64{1, 2}) })
}
