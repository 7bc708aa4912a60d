// Package exact provides reference summation algorithms and the error
// bounds of the paper's Section VI-B: an arbitrary-precision exact sum
// (the ground truth for accuracy experiments), the plain left-to-right
// sum (the paper's std::accumulate baseline, "CONV"), Neumaier's
// compensated sum (an accuracy reference that is fast but *not*
// reproducible), and the analytic error bound of Eq. 6.
package exact

import (
	"math"
	"math/big"

	"repro/internal/floatbits"
)

// bigPrec is the working precision for the exact reference sum. 2100
// bits cover the full float64 exponent range (≈ 2·1024 + 52), so adding
// float64 values at this precision is exact until astronomically many
// values are accumulated.
const bigPrec = 2100

// Sum returns the mathematically exact sum of xs as a big.Float.
// NaN or Inf inputs are not supported (big.Float has no NaN); callers
// filter them first.
func Sum(xs []float64) *big.Float {
	acc := new(big.Float).SetPrec(bigPrec)
	t := new(big.Float).SetPrec(bigPrec)
	for _, x := range xs {
		t.SetFloat64(x)
		acc.Add(acc, t)
	}
	return acc
}

// SumFloat64 returns the exact sum correctly rounded to float64.
func SumFloat64(xs []float64) float64 {
	f, _ := Sum(xs).Float64()
	return f
}

// AbsError returns |v − exact(xs)| as a float64.
func AbsError(v float64, exact *big.Float) float64 {
	d := new(big.Float).SetPrec(bigPrec).SetFloat64(v)
	d.Sub(d, exact)
	d.Abs(d)
	f, _ := d.Float64()
	return f
}

// Naive64 is the conventional left-to-right floating-point sum — the
// paper's CONV baseline (std::accumulate). It is order-dependent.
func Naive64(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Neumaier64 is Neumaier's improved Kahan–Babuška compensated sum.
// It is far more accurate than Naive64 at roughly 4 FP ops per element,
// but still order-dependent — included as an accuracy/performance
// reference point, not as a solution to reproducibility.
func Neumaier64(xs []float64) float64 {
	sum, comp := 0.0, 0.0
	for _, x := range xs {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - t) + x
		} else {
			comp += (x - t) + sum
		}
		sum = t
	}
	return sum + comp
}

// Pairwise64 sums by recursive halving — the typical accuracy middle
// ground between naive and compensated summation. Order-dependent.
func Pairwise64(xs []float64) float64 {
	const cutoff = 64
	if len(xs) <= cutoff {
		return Naive64(xs)
	}
	mid := len(xs) / 2
	return Pairwise64(xs[:mid]) + Pairwise64(xs[mid:])
}

// RSumBound returns the error bound of reproducible summation (Eq. 6):
// n · 2^((1−L)·W−1) · max|b_i|, for float64 parameters (W = 40).
func RSumBound(n, levels int, maxAbs float64) float64 {
	return float64(n) * math.Ldexp(1, (1-levels)*floatbits.W64-1) * maxAbs
}

// RSumBound32 is the float32 analogue of RSumBound (W = 18).
func RSumBound32(n, levels int, maxAbs float64) float64 {
	return float64(n) * math.Ldexp(1, (1-levels)*floatbits.W32-1) * maxAbs
}
