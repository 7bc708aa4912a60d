package sqlagg

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/exact"
	"repro/internal/workload"
)

// Differential tests: AVG/VAR/STDDEV against arbitrary-precision
// references from internal/exact on adversarial inputs — massive
// cancellation, denormals, and 2^±300 magnitude spreads. The aggregates
// cannot beat the conditioning of their own finalization formula (the
// Σx² − (Σx)²/n decomposition is genuinely ill-conditioned when the
// mean dominates the spread), so the assertions bound the error by the
// conditioning of each input, not by a single global epsilon.

// adversarialInputs names the stress inputs shared by the differential
// tests below.
func adversarialInputs() map[string][]float64 {
	cancel := make([]float64, 0, 2000)
	for i := 0; i < 1000; i++ {
		v := math.Ldexp(1+float64(i)/1000, 40)
		cancel = append(cancel, v, -v)
	}
	cancel = append(cancel, 1.0)

	denorm := make([]float64, 1500)
	for i := range denorm {
		denorm[i] = math.Ldexp(float64(1+i%7), -1070+i%20)
	}

	spread := make([]float64, 0, 900)
	for i := 0; i < 300; i++ {
		spread = append(spread,
			math.Ldexp(1+float64(i)/300, 300),
			math.Ldexp(1+float64(i)/300, -300),
			-math.Ldexp(1+float64(i)/300, 299))
	}

	return map[string][]float64{
		"cancellation": cancel,
		"denormals":    denorm,
		"spread_2e300": spread,
		"mixed_mag":    workload.Values64(5, 4000, workload.MixedMag),
	}
}

// exactMean returns Σx/n in big.Float precision.
func exactMean(xs []float64) *big.Float {
	s := exact.Sum(xs)
	return new(big.Float).Quo(s, big.NewFloat(float64(len(xs))))
}

// exactVarPop returns the population variance in big.Float precision,
// via the same Σx²−(Σx)²/n decomposition the aggregate finalizes with.
func exactVarPop(xs []float64) *big.Float {
	sq := make([]float64, 0, 2*len(xs))
	for _, x := range xs {
		// Error-free squaring: x² = p + e exactly, with e from FMA.
		p := x * x
		e := math.FMA(x, x, -p)
		sq = append(sq, p, e)
	}
	n := big.NewFloat(float64(len(xs)))
	sumSq := exact.Sum(sq)
	sum := exact.Sum(xs)
	mean2 := new(big.Float).Quo(new(big.Float).Mul(sum, sum), n)
	return new(big.Float).Quo(new(big.Float).Sub(sumSq, mean2), n)
}

// relErr returns |got − want|/max(|want|, floor).
func relErr(got float64, want *big.Float, floor float64) float64 {
	w, _ := want.Float64()
	den := math.Max(math.Abs(w), floor)
	return exact.AbsError(got, want) / den
}

// denormalTol is the extra relative slack for pure-denormal inputs:
// contributions below rsum's dead-level floor (2^LowestLevelExp64) are
// deterministically dropped, so accuracy there is bounded by the
// truncation contract, not by the summation error bound. The drop is
// deterministic — reproducibility still holds bit-exactly, which
// TestVarStddevPermutationStable asserts on the same input.
const denormalTol = 0.05

func TestAvgDifferentialAdversarial(t *testing.T) {
	for name, xs := range adversarialInputs() {
		a := statesOf(t, 4, xs, AggAvg)[0]
		want := exactMean(xs)
		// The reproducible sum is exact up to its level capacity; the
		// only roundings are x-folds and the final division. The bound
		// scales with the mean's conditioning: Σ|x| / |Σx|.
		abs := exact.Sum(absAll(xs))
		absF, _ := abs.Float64()
		wantF, _ := want.Float64()
		cond := absF / math.Max(math.Abs(wantF)*float64(len(xs)), math.SmallestNonzeroFloat64)
		tol := 1e-13 * math.Max(cond, 1)
		if name == "denormals" {
			tol = math.Max(tol, denormalTol)
		}
		if e := relErr(a.Value(), want, math.SmallestNonzeroFloat64); e > tol {
			t.Errorf("%s: AVG rel err %.3e > %.3e (got %v)", name, e, tol, a.Value())
		}
	}
}

func TestVarStddevDifferentialAdversarial(t *testing.T) {
	for name, xs := range adversarialInputs() {
		v := statesOf(t, 4, xs, AggVarPop, AggStddevPop, AggVarSamp)
		want := exactVarPop(xs)
		wantF, _ := want.Float64()
		if wantF < 0 {
			wantF = 0
		}
		// Conditioning of the textbook decomposition: Σx² vs the
		// variance it cancels down to.
		sq := make([]float64, len(xs))
		for i, x := range xs {
			sq[i] = x * x
		}
		sumSqF, _ := exact.Sum(sq).Float64()
		cond := sumSqF / math.Max(wantF*float64(len(xs)), math.SmallestNonzeroFloat64)
		tol := 1e-13 * math.Max(cond, 1)
		if name == "denormals" {
			tol = math.Max(tol, denormalTol)
		}
		got := v[0].Value()
		if e := relErr(got, want, math.SmallestNonzeroFloat64); e > tol {
			t.Errorf("%s: VAR_POP rel err %.3e > %.3e (got %v, want %v)", name, e, tol, got, wantF)
		}
		// STDDEV_POP must be exactly √VAR_POP (one deterministic sqrt).
		if math.Float64bits(v[1].Value()) != math.Float64bits(math.Sqrt(got)) {
			t.Errorf("%s: STDDEV_POP is not sqrt(VAR_POP)", name)
		}
		// And the sample variants agree with the n/(n−1) rescale of the
		// same numerator.
		n := float64(len(xs))
		if s := v[2].Value(); math.Abs(s-got*n/(n-1)) > 1e-12*math.Max(math.Abs(s), 1) {
			t.Errorf("%s: VAR_SAMP %v inconsistent with VAR_POP %v", name, s, got)
		}
	}
}

// TestVarStddevPermutationStable is the reproducibility half of the
// differential check: adversarial inputs in reversed and interleaved
// orders, split across merged partials, must finalize bit-identically.
func TestVarStddevPermutationStable(t *testing.T) {
	for name, xs := range adversarialInputs() {
		kinds := []AggKind{AggVarPop, AggStddevSamp}
		seq := statesOf(t, 3, xs, kinds...)
		backwards := make([]float64, len(xs))
		for i, x := range xs {
			backwards[len(xs)-1-i] = x
		}
		rev := statesOf(t, 3, backwards, kinds...)
		var parts [3][]float64
		for i, x := range xs {
			parts[i%3] = append(parts[i%3], x)
		}
		merged := statesOf(t, 3, nil, kinds...)
		for _, part := range parts {
			for k, st := range statesOf(t, 3, part, kinds...) {
				mergeInto(t, merged[k], st)
			}
		}
		for _, pair := range [][2]float64{
			{seq[0].Value(), rev[0].Value()},
			{seq[0].Value(), merged[0].Value()},
			{seq[1].Value(), rev[1].Value()},
			{seq[1].Value(), merged[1].Value()},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("%s: variance not permutation/merge stable: %v vs %v", name, pair[0], pair[1])
			}
		}
	}
}

func absAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Abs(x)
	}
	return out
}
