package obs

import "testing"

// These tests pin the documented edge-case behavior of the histogram
// quantile estimator, SeriesSnapshot.Quantile, on the snapshot of a
// live histogram: zero observations report 0, a single sample lands
// inside its containing bucket, mass in the implicit +Inf bucket reports
// the largest finite bound (the estimator never invents an upper edge),
// and the estimate is monotone in q (p50 can never exceed p99).

// quantile estimates h's q-quantile from its snapshot series.
func quantile(h *Histogram, q float64) float64 {
	return h.series(nil).Quantile(h.bounds, q)
}

func TestQuantileEmptyHistogram(t *testing.T) {
	h := newHistogram([]float64{1, 2, 3})
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := quantile(h, q); got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestQuantileSingleSample(t *testing.T) {
	h := newHistogram([]float64{1, 2, 3})
	h.Observe(1.5)
	p50 := quantile(h, 0.5)
	if p50 <= 1 || p50 > 2 {
		t.Fatalf("single-sample p50 = %v, want within containing bucket (1, 2]", p50)
	}
	// Linear interpolation with rank 0.5 of 1 sample lands mid-bucket.
	if p50 != 1.5 {
		t.Fatalf("single-sample p50 = %v, want 1.5 (mid-bucket interpolation)", p50)
	}
	p99 := quantile(h, 0.99)
	if p99 < p50 || p99 > 2 {
		t.Fatalf("single-sample p99 = %v, want in [p50, 2]", p99)
	}
}

func TestQuantileAllSamplesInOverflowBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2, 10})
	for i := 0; i < 100; i++ {
		h.Observe(50) // beyond every finite bound
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := quantile(h, q); got != 10 {
			t.Fatalf("overflow-only Quantile(%v) = %v, want largest finite bound 10", q, got)
		}
	}
}

func TestQuantileMonotoneInQ(t *testing.T) {
	h := newHistogram(DefaultLatencyBuckets)
	// A deterministic spread across low buckets, mid buckets, and the
	// overflow bucket.
	for i := 0; i < 500; i++ {
		h.Observe(float64(i%97) / 1000) // 0..96ms
	}
	for i := 0; i < 20; i++ {
		h.Observe(100) // overflow
	}
	prev := -1.0
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
		got := quantile(h, q)
		if got < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v: p50>p99 impossibility violated", q, got, prev)
		}
		prev = got
	}
	if p50, p99 := quantile(h, 0.5), quantile(h, 0.99); p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
}
