// Package memlat models the system-level memory latency behaviour of §4.5:
// the distribution a load's actual latency is drawn from.
//
// Three families are modelled, matching the paper:
//
//   - Cache: a lockup-free data cache with hit rate hr — latency hl on a
//     hit, ml on a miss (Lhr(hl,ml), e.g. L80(2,5));
//   - Normal: a cacheless machine with a hashed multipath interconnect —
//     latency drawn from a zero-based (truncated at zero), discretized
//     normal distribution N(μ,σ);
//   - Mixed: a cache in front of a Tera-style network — hit latency hl with
//     probability hr, otherwise a Normal(μ,σ) sample (L80-N(30,5)).
//
// A Fixed model is provided for deterministic tests and for the Figure 3
// latency sweep.
package memlat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Model is a memory system latency distribution.
type Model interface {
	// Sample draws one load latency in cycles (>= 0).
	Sample(rng *rand.Rand) int
	// Mean returns the true expected latency of the model as simulated.
	Mean() float64
	// Name returns the paper's notation for the model.
	Name() string
}

// Stateful is implemented by models whose Sample mutates internal state
// (e.g. the Bursty Markov chain). Consumers that sample from multiple
// goroutines — or that want per-block reproducibility independent of
// measurement order — must Fork a private instance per stream.
type Stateful interface {
	Model
	// Fork returns an independent copy with freshly initialized state.
	Fork() Model
}

// ForStream returns a private instance of m safe for an independent
// sampling stream: stateful models are forked, stateless ones returned
// as-is.
func ForStream(m Model) Model {
	if s, ok := m.(Stateful); ok {
		return s.Fork()
	}
	return m
}

// Fixed is a deterministic latency.
type Fixed struct{ Latency int }

// Sample implements Model.
func (f Fixed) Sample(*rand.Rand) int { return f.Latency }

// Mean implements Model.
func (f Fixed) Mean() float64 { return float64(f.Latency) }

// Name implements Model.
func (f Fixed) Name() string { return fmt.Sprintf("Fixed(%d)", f.Latency) }

// Cache is the lockup-free cache model Lhr(hl,ml).
type Cache struct {
	HitRate float64 // in (0,1]
	HitLat  int
	MissLat int
}

// Sample implements Model.
func (c Cache) Sample(rng *rand.Rand) int {
	if rng.Float64() < c.HitRate {
		return c.HitLat
	}
	return c.MissLat
}

// Mean implements Model: the effective access time.
func (c Cache) Mean() float64 {
	return c.HitRate*float64(c.HitLat) + (1-c.HitRate)*float64(c.MissLat)
}

// Name implements Model, e.g. "L80(2,5)".
func (c Cache) Name() string {
	return fmt.Sprintf("L%.0f(%d,%d)", c.HitRate*100, c.HitLat, c.MissLat)
}

// Normal is the interconnection-network model N(μ,σ): a discretized normal
// distribution truncated below zero ("zero-based probability mass
// function").
type Normal struct {
	Mu    float64
	Sigma float64

	cum  []float64 // cumulative probabilities for latencies 0..len-1
	mean float64
}

// NewNormal builds the discretized, zero-truncated N(mu, sigma) model.
func NewNormal(mu, sigma float64) *Normal {
	if sigma <= 0 {
		panic(fmt.Sprintf("memlat: NewNormal(%g, %g)", mu, sigma))
	}
	n := &Normal{Mu: mu, Sigma: sigma}
	max := int(math.Ceil(mu + 8*sigma))
	weights := make([]float64, max+1)
	total := 0.0
	if 2*sigma*sigma == 0 {
		// 2σ² underflowed, so every exponent below would be a division
		// by zero: put the mass on the latency nearest μ directly (split
		// evenly when μ lies halfway between two), the limit the
		// fallback below approaches.
		d := math.Abs(math.Round(mu) - mu)
		for k := range weights {
			if x := float64(k) - mu; x*x == d*d {
				weights[k] = 1
				total++
			}
		}
	} else {
		for k := 0; k <= max; k++ {
			w := math.Exp(-(float64(k) - mu) * (float64(k) - mu) / (2 * sigma * sigma))
			weights[k] = w
			total += w
		}
	}
	if total == 0 {
		// σ is so small next to μ's distance from the nearest latency
		// that every weight underflowed: weigh each latency against the
		// nearest one instead, which puts the mass there (split evenly
		// when μ lies halfway between two).
		d := math.Abs(math.Round(mu) - mu)
		for k := range weights {
			weights[k] = math.Exp((d*d - (float64(k)-mu)*(float64(k)-mu)) / (2 * sigma * sigma))
			total += weights[k]
		}
	}
	n.cum = make([]float64, max+1)
	acc := 0.0
	for k, w := range weights {
		p := w / total
		acc += p
		n.cum[k] = acc
		n.mean += float64(k) * p
	}
	n.cum[max] = 1 // guard against rounding
	return n
}

// Sample implements Model.
func (n *Normal) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(n.cum, u)
}

// Mean implements Model: the mean of the truncated, discretized
// distribution (slightly above μ for small μ/σ ratios).
func (n *Normal) Mean() float64 { return n.mean }

// Name implements Model, e.g. "N(2,5)".
func (n *Normal) Name() string { return fmt.Sprintf("N(%g,%g)", n.Mu, n.Sigma) }

// Mixed is the cache-plus-network model Lhr-N(μ,σ): a cache hit with
// probability HitRate and latency HitLat, otherwise a network access drawn
// from Miss.
type Mixed struct {
	HitRate float64
	HitLat  int
	Miss    *Normal
}

// NewMixed builds the mixed model.
func NewMixed(hitRate float64, hitLat int, mu, sigma float64) *Mixed {
	return &Mixed{HitRate: hitRate, HitLat: hitLat, Miss: NewNormal(mu, sigma)}
}

// Sample implements Model.
func (m *Mixed) Sample(rng *rand.Rand) int {
	if rng.Float64() < m.HitRate {
		return m.HitLat
	}
	return m.Miss.Sample(rng)
}

// Mean implements Model.
func (m *Mixed) Mean() float64 {
	return m.HitRate*float64(m.HitLat) + (1-m.HitRate)*m.Miss.Mean()
}

// Name implements Model, e.g. "L80-N(30,5)".
func (m *Mixed) Name() string {
	return fmt.Sprintf("L%.0f-N(%g,%g)", m.HitRate*100, m.Miss.Mu, m.Miss.Sigma)
}

// System couples a memory model with the optimistic latencies the
// traditional scheduler is evaluated at for that system (Table 2's
// "Optimistic Latency" column: cache hit time and effective access time
// for cache systems, the distribution mean for network systems).
type System struct {
	Model    Model
	OptLats  []float64
	Category string // table section: "cache", "network", "mixed"
}

// PaperSystems returns the twelve system configurations of Table 2, in the
// paper's order.
func PaperSystems() []System {
	return []System{
		{Model: Cache{0.80, 2, 5}, OptLats: []float64{2, 2.6}, Category: "cache"},
		{Model: Cache{0.80, 2, 10}, OptLats: []float64{2, 3.6}, Category: "cache"},
		{Model: Cache{0.95, 2, 5}, OptLats: []float64{2, 2.15}, Category: "cache"},
		{Model: Cache{0.95, 2, 10}, OptLats: []float64{2, 2.4}, Category: "cache"},
		{Model: NewNormal(2, 2), OptLats: []float64{2}, Category: "network"},
		{Model: NewNormal(3, 2), OptLats: []float64{3}, Category: "network"},
		{Model: NewNormal(5, 2), OptLats: []float64{5}, Category: "network"},
		{Model: NewNormal(2, 5), OptLats: []float64{2}, Category: "network"},
		{Model: NewNormal(3, 5), OptLats: []float64{3}, Category: "network"},
		{Model: NewNormal(5, 5), OptLats: []float64{5}, Category: "network"},
		{Model: NewNormal(30, 5), OptLats: []float64{30}, Category: "network"},
		{Model: NewMixed(0.80, 2, 30, 5), OptLats: []float64{2, 7.6}, Category: "mixed"},
	}
}

// PaperOptimisticLatencies returns the distinct optimistic latencies used
// across Table 4's columns, ascending.
func PaperOptimisticLatencies() []float64 {
	return []float64{2, 2.15, 2.4, 2.6, 3, 3.6, 5, 7.6, 30}
}
