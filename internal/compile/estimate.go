package compile

import (
	"math"
	"sync"
	"time"
)

// Estimator defaults.
const (
	// estimatorAlpha is the EWMA smoothing factor for per-instruction
	// compile cost: new observations get 10% weight, so the estimate
	// tracks drift without whipsawing on one pathological block.
	estimatorAlpha = 0.1
	// EstimatorMinSamples is how many observations a tier needs before
	// its estimate is considered trustworthy; below it Estimate returns
	// zero (unknown) so admission never fail-fasts on a cold tier.
	EstimatorMinSamples = 8
)

// tierEstimate is one budget tier's running cost model: an EWMA of
// nanoseconds-per-instruction plus an EWMA of its squared deviation,
// so the p99 proxy can widen with observed variance.
type tierEstimate struct {
	samples int64
	meanNs  float64 // EWMA of ns per instruction
	varNs   float64 // EWMA of squared deviation of ns per instruction
}

// CostEstimator tracks observed compile latency per budget tier,
// normalized by program size, and answers "how long would a program of
// N instructions take at this tier, pessimistically?" — the estimate
// deadline-aware admission compares against a request's remaining
// deadline. Safe for concurrent use; nil-safe (a nil estimator never
// has an estimate, so admission never fail-fasts).
type CostEstimator struct {
	mu    sync.Mutex
	tiers map[string]*tierEstimate
}

// NewCostEstimator builds an empty estimator.
func NewCostEstimator() *CostEstimator {
	return &CostEstimator{tiers: make(map[string]*tierEstimate)}
}

// Observe records one completed compile: elapsed wall time for a
// program of instrs instructions at the named tier. Zero-instruction
// programs are counted as one instruction so the sample still lands.
func (e *CostEstimator) Observe(tier string, instrs int, elapsed time.Duration) {
	if e == nil || elapsed < 0 {
		return
	}
	if instrs < 1 {
		instrs = 1
	}
	perInstr := float64(elapsed.Nanoseconds()) / float64(instrs)
	e.mu.Lock()
	defer e.mu.Unlock()
	te, ok := e.tiers[tier]
	if !ok {
		te = &tierEstimate{}
		e.tiers[tier] = te
	}
	te.samples++
	if te.samples == 1 {
		te.meanNs = perInstr
		return
	}
	dev := perInstr - te.meanNs
	te.meanNs += estimatorAlpha * dev
	te.varNs = (1-estimatorAlpha)*te.varNs + estimatorAlpha*dev*dev
}

// Estimate returns a pessimistic (≈p99) latency estimate for compiling
// a program of instrs instructions at the named tier: (mean + 3σ) per
// instruction, scaled by size. It returns zero while the tier has
// fewer than EstimatorMinSamples observations — "no idea yet" — which
// callers must treat as "admit".
func (e *CostEstimator) Estimate(tier string, instrs int) time.Duration {
	if e == nil {
		return 0
	}
	if instrs < 1 {
		instrs = 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	te, ok := e.tiers[tier]
	if !ok || te.samples < EstimatorMinSamples {
		return 0
	}
	perInstr := te.meanNs + 3*math.Sqrt(te.varNs)
	return time.Duration(perInstr * float64(instrs))
}
