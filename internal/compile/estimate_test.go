package compile

import (
	"sync"
	"testing"
	"time"
)

func TestEstimatorColdTierReturnsZero(t *testing.T) {
	e := NewCostEstimator()
	if got := e.Estimate("small", 100); got != 0 {
		t.Fatalf("cold Estimate = %v, want 0", got)
	}
	// Below the sample floor the tier stays "unknown".
	for i := 0; i < EstimatorMinSamples-1; i++ {
		e.Observe("small", 10, time.Millisecond)
	}
	if got := e.Estimate("small", 100); got != 0 {
		t.Fatalf("Estimate after %d samples = %v, want 0", EstimatorMinSamples-1, got)
	}
	e.Observe("small", 10, time.Millisecond)
	if got := e.Estimate("small", 100); got == 0 {
		t.Fatal("Estimate still 0 after reaching the sample floor")
	}
}

func TestEstimatorScalesWithSize(t *testing.T) {
	e := NewCostEstimator()
	// 10 instructions in 1ms → 100µs/instr, zero variance.
	for i := 0; i < 20; i++ {
		e.Observe("default", 10, time.Millisecond)
	}
	got100 := e.Estimate("default", 100)
	want := 10 * time.Millisecond
	if got100 < want*9/10 || got100 > want*11/10 {
		t.Fatalf("Estimate(100 instrs) = %v, want ~%v", got100, want)
	}
	if got200 := e.Estimate("default", 200); got200 < got100*19/10 {
		t.Fatalf("Estimate not ~linear in size: 100→%v, 200→%v", got100, got200)
	}
}

func TestEstimatorPessimismWidensWithVariance(t *testing.T) {
	steady, noisy := NewCostEstimator(), NewCostEstimator()
	for i := 0; i < 50; i++ {
		steady.Observe("t", 10, time.Millisecond)
		if i%2 == 0 {
			noisy.Observe("t", 10, time.Millisecond/2)
		} else {
			noisy.Observe("t", 10, 3*time.Millisecond/2)
		}
	}
	// Same mean (100µs/instr) but the noisy tier must estimate higher:
	// the +3σ term prices in its variance.
	if s, n := steady.Estimate("t", 100), noisy.Estimate("t", 100); n <= s {
		t.Fatalf("noisy estimate %v not above steady %v", n, s)
	}
}

func TestEstimatorTiersIndependent(t *testing.T) {
	e := NewCostEstimator()
	for i := 0; i < 20; i++ {
		e.Observe("small", 10, time.Millisecond)     // 100µs/instr
		e.Observe("large", 10, 100*time.Millisecond) // 10ms/instr
	}
	if s, l := e.Estimate("small", 10), e.Estimate("large", 10); l < 10*s {
		t.Fatalf("tiers bleed together: small=%v large=%v", s, l)
	}
	if got := e.tiers["small"].samples; got != 20 {
		t.Fatalf("small tier samples = %d, want 20", got)
	}
}

func TestEstimatorNilSafe(t *testing.T) {
	var e *CostEstimator
	e.Observe("t", 10, time.Millisecond)
	if got := e.Estimate("t", 10); got != 0 {
		t.Fatalf("nil Estimate = %v", got)
	}
}

func TestEstimatorConcurrent(t *testing.T) {
	e := NewCostEstimator()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e.Observe("t", 10, time.Millisecond)
				e.Estimate("t", 50)
			}
		}()
	}
	wg.Wait()
	if got := e.tiers["t"].samples; got != 1600 {
		t.Fatalf("samples = %d, want 1600", got)
	}
}
