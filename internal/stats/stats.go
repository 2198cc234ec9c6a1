// Package stats implements the paper's measurement procedure (§4.3):
// repeated block simulations, bootstrap resampling, and paired percentage
// improvement with a 95% confidence interval.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of sorted xs
// using linear interpolation. It panics if xs is empty or unsorted calls
// are the caller's responsibility.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// BootstrapMeans draws `resamples` bootstrap resamples (with replacement,
// same size as samples) and returns the mean of each. This is the §4.3
// procedure: from 30 sample runtimes, generate 100 sample means.
func BootstrapMeans(samples []float64, resamples int, rng *rand.Rand) []float64 {
	if len(samples) == 0 {
		panic("stats: bootstrap of empty sample")
	}
	out := make([]float64, resamples)
	for r := 0; r < resamples; r++ {
		s := 0.0
		for i := 0; i < len(samples); i++ {
			s += samples[rng.Intn(len(samples))]
		}
		out[r] = s / float64(len(samples))
	}
	return out
}

// Improvement summarizes a paired comparison of two runtime distributions.
type Improvement struct {
	// Mean is the mean percentage improvement of "new" over "base"
	// (positive = new is faster).
	Mean float64
	// Lo and Hi bound the 95% confidence interval.
	Lo, Hi float64
	// BaseMean and NewMean are the mean runtimes of the two systems.
	BaseMean, NewMean float64
}

// String renders "12.3% [10.1, 14.5]".
func (im Improvement) String() string {
	return fmt.Sprintf("%.1f%% [%.1f, %.1f]", im.Mean, im.Lo, im.Hi)
}

// PairedImprovement pairs bootstrap sample-mean runtimes of a baseline and
// a new system, computes the percentage improvement for each pair, sorts
// them, and extracts the mean and the 95% confidence interval directly
// (§4.3). The two slices must have equal length.
func PairedImprovement(base, new_ []float64) Improvement {
	if len(base) != len(new_) || len(base) == 0 {
		panic(fmt.Sprintf("stats: paired improvement over %d/%d samples", len(base), len(new_)))
	}
	imps := make([]float64, len(base))
	for i := range base {
		if base[i] == 0 {
			panic("stats: zero baseline runtime")
		}
		imps[i] = (base[i] - new_[i]) / base[i] * 100
	}
	sort.Float64s(imps)
	return Improvement{
		Mean:     Mean(imps),
		Lo:       Percentile(imps, 2.5),
		Hi:       Percentile(imps, 97.5),
		BaseMean: Mean(base),
		NewMean:  Mean(new_),
	}
}

// Scale multiplies every element by f, returning xs for chaining.
func Scale(xs []float64, f float64) []float64 {
	for i := range xs {
		xs[i] *= f
	}
	return xs
}

// AddInto adds src into dst element-wise; the slices must have equal
// length. Used to sum per-block bootstrap runtimes into program runtimes.
func AddInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("stats: length mismatch")
	}
	for i := range dst {
		dst[i] += src[i]
	}
}
