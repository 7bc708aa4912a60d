package exact

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestSumMatchesSimpleCases(t *testing.T) {
	if got := SumFloat64([]float64{1, 2, 3}); got != 6 {
		t.Errorf("SumFloat64 = %v", got)
	}
	if got := SumFloat64(nil); got != 0 {
		t.Errorf("SumFloat64(nil) = %v", got)
	}
	// Exact sum sees through catastrophic cancellation.
	if got := SumFloat64([]float64{1e16, 1, -1e16}); got != 1 {
		t.Errorf("cancellation: got %v, want 1", got)
	}
}

func TestNeumaierBeatsNaive(t *testing.T) {
	xs := workload.Values64(2, 100000, workload.Exp1)
	e := Sum(xs)
	en := AbsError(Naive64(xs), e)
	ek := AbsError(Neumaier64(xs), e)
	if ek > en+1e-12 {
		t.Errorf("Neumaier error %g worse than naive %g", ek, en)
	}
	// Neumaier on this workload should be essentially exact.
	if ek > 1e-9 {
		t.Errorf("Neumaier error %g unexpectedly large", ek)
	}
}

func TestNeumaierHandlesCancellation(t *testing.T) {
	// The classic case Kahan misses but Neumaier catches.
	xs := []float64{1, 1e100, 1, -1e100}
	if got := Neumaier64(xs); got != 2 {
		t.Errorf("Neumaier64 = %v, want 2", got)
	}
}

func TestPairwiseAccuracyBetween(t *testing.T) {
	xs := workload.Values64(3, 1<<16, workload.Uniform12)
	e := Sum(xs)
	ep := AbsError(Pairwise64(xs), e)
	en := AbsError(Naive64(xs), e)
	if ep > en+1e-9 {
		t.Errorf("pairwise error %g worse than naive %g", ep, en)
	}
}

func TestBoundsMonotoneInLevels(t *testing.T) {
	f := func(nRaw uint16, maxAbsRaw uint16) bool {
		n := int(nRaw)%100000 + 1
		maxAbs := float64(maxAbsRaw) + 1
		prev := math.Inf(1)
		for l := 1; l <= 4; l++ {
			b := RSumBound(n, l, maxAbs)
			if b > prev {
				return false
			}
			prev = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestBoundValuesTableII(t *testing.T) {
	// Table II reports RSUM (L=1) bound ≈ 1.0·10^3 for n=10^3 values in
	// U[1,2): n · 2^(0·W−1)·2 = 10^3. Sanity-check our formula
	// reproduces the table's order of magnitude.
	b := RSumBound(1000, 1, 2)
	if b < 500 || b > 2000 {
		t.Errorf("L=1 bound = %g, want ≈ 1e3", b)
	}
	b = RSumBound(1000, 2, 2)
	if b > 1e-8 || b < 1e-10 {
		t.Errorf("L=2 bound = %g, want ≈ 9e-10", b)
	}
	b = RSumBound(1000, 3, 2)
	if b > 1e-20 || b < 1e-22 {
		t.Errorf("L=3 bound = %g, want ≈ 8e-22", b)
	}
}
