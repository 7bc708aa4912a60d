package rsum

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/floatbits"
)

// Stress tests targeting the exactness boundaries of the algorithm:
// carry-propagation saturation, level-shift thresholds, extraction tie
// cases, and catastrophic cancellation.

// TestCarrySaturation drives a single level to its drift limit over and
// over: NB identical maximal contributions per propagation window.
func TestCarrySaturation(t *testing.T) {
	s := NewState64(2)
	// Anchor the state so eTop = 40 (values near 1).
	s.Add(1.0)
	// The largest value that does not force a raise has exponent
	// eTop − m + W − 2.
	e := int(s.eTop) - floatbits.MantBits64 + floatbits.W64 - 2
	big := math.Ldexp(1.9999999, e)
	exact := 1.0
	for i := 0; i < 10*floatbits.NB64; i++ {
		s.Add(big)
		exact += big
	}
	if got := s.Value(); math.Abs(got-exact) > math.Abs(exact)*1e-12 {
		t.Errorf("saturation sum: %v vs %v", got, exact)
	}
	// Same with alternating signs (drift in both directions).
	s2 := NewState64(2)
	s2.Add(1.0)
	for i := 0; i < 10*floatbits.NB64; i++ {
		if i%2 == 0 {
			s2.Add(big)
		} else {
			s2.Add(-big)
		}
	}
	if got := s2.Value(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("alternating saturation: %v, want 1", got)
	}
}

// TestRepeatedRaises feeds values with strictly increasing exponents so
// every add forces a level shift.
func TestRepeatedRaises(t *testing.T) {
	var xs []float64
	for e := -200; e <= 200; e += 11 {
		xs = append(xs, math.Ldexp(1.5, e))
	}
	ref := NewState64(3)
	for _, x := range xs {
		ref.Add(x)
	}
	// Descending order produces exactly one raise; the states must match.
	desc := NewState64(3)
	for i := len(xs) - 1; i >= 0; i-- {
		desc.Add(xs[i])
	}
	if !ref.Equal(&desc) {
		t.Error("raise order changed the state")
	}
	// The sum is dominated by the largest term; L=3 spans 120 bits so
	// the top terms are represented exactly.
	want := 0.0
	for _, x := range xs {
		want += x
	}
	if got := ref.Value(); math.Abs(got-want) > want*1e-12 {
		t.Errorf("raise sum %v vs %v", got, want)
	}
}

// TestExtractionTies feeds values whose remainder at level 1 is exactly
// half an ulp — the round-to-nearest-even tie case that motivates fixed
// extractors (see the package comment). Any order must produce the same
// bits.
func TestExtractionTies(t *testing.T) {
	s := NewState64(2)
	s.Add(1.0) // eTop = 40, ulp(E1) = 2^-12
	halfUlp := math.Ldexp(1, -13)
	xs := []float64{
		1 + 3*halfUlp, 1 + 5*halfUlp, 1 - 3*halfUlp, halfUlp, -halfUlp,
		3 * halfUlp, 5 * halfUlp, 7 * halfUlp,
	}
	ref := NewState64(2)
	for _, x := range xs {
		ref.Add(x)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		perm := rng.Perm(len(xs))
		s := NewState64(2)
		for _, i := range perm {
			s.Add(xs[i])
		}
		if !s.Equal(&ref) {
			t.Fatalf("tie-case permutation %d changed the state", trial)
		}
	}
}

// TestMassiveCancellation sums pairs that cancel to a tiny residual;
// the residual must be identical for any order and, with L=3, exact.
func TestMassiveCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs []float64
	residual := 0.0
	for i := 0; i < 1000; i++ {
		big := math.Ldexp(1+rng.Float64(), 60)
		tiny := math.Ldexp(1+rng.Float64(), -40)
		xs = append(xs, big, -big, tiny)
		residual += tiny
	}
	s := NewState64(3)
	s.AddSlice(xs)
	got := s.Value()
	// Eq. 6: the error is bounded relative to max|b| (the big cancelled
	// terms), not the residual: n · 2^((1−L)·W−1) · max|b|.
	bound := float64(len(xs)) * math.Ldexp(1, (1-3)*floatbits.W64-1) * math.Ldexp(1, 61)
	if math.Abs(got-residual) > bound {
		t.Errorf("cancellation residual %v vs %v (bound %g)", got, residual, bound)
	}
	// Permutation invariance under cancellation.
	perm := rng.Perm(len(xs))
	s2 := NewState64(3)
	for _, i := range perm {
		s2.Add(xs[i])
	}
	if math.Float64bits(s2.Value()) != math.Float64bits(got) {
		t.Error("cancellation order changed the bits")
	}
}

// TestManyMerges exercises deep merge chains (10k partial states).
func TestManyMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	total := NewState64(2)
	ref := NewState64(2)
	for i := 0; i < 10000; i++ {
		x := (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(60)-30)
		part := NewState64(2)
		part.Add(x)
		total.Merge(&part)
		ref.Add(x)
	}
	if !total.Equal(&ref) {
		t.Error("10k-way merge differs from sequential")
	}
}

// TestDenseBoundarySweep adds powers of two straddling every level
// boundary of the grid — each is exactly representable, so with enough
// levels the result must be exact.
func TestDenseBoundarySweep(t *testing.T) {
	var xs []float64
	for e := -80; e <= 80; e++ {
		xs = append(xs, math.Ldexp(1, e))
	}
	s := NewState64(6)
	s.AddSlice(xs)
	want := 0.0
	for _, x := range xs {
		want += x
	}
	// The sum of powers of two 2^-80..2^80 ≈ 2^81; float64 rounds it,
	// but L=6 spans 240 bits so the reproducible sum must round the
	// exact value — compare against the analytically exact sum.
	// Σ_{e=-80}^{80} 2^e = 2^81 − 2^-80.
	exact := math.Ldexp(1, 81) - math.Ldexp(1, -80)
	if got := s.Value(); got != exact {
		t.Errorf("boundary sweep: %v, want %v (naive: %v)", got, exact, want)
	}
}

// TestStateSize documents the accumulator footprint the paper's memory
// layout (Figure 5) depends on: the state must stay a small value type
// so it can live directly in hash-table payload arrays.
func TestStateSize(t *testing.T) {
	var s64 State64
	var s32 State32
	if size := unsafe.Sizeof(s64); size > 128 {
		t.Errorf("State64 is %d bytes; hash-table payloads should stay compact", size)
	}
	if size := unsafe.Sizeof(s32); size > 128 {
		t.Errorf("State32 is %d bytes", size)
	}
}
