// Package workload generates the synthetic inputs of the paper's
// evaluation (Section VI-A): ⟨key, value⟩ pairs with uint32 keys drawn
// uniformly at random from [0, ngroups) and floating-point values from
// U[1,2) or Exp(1), plus deterministic permutations, Zipf-skewed keys
// (an extension; the paper cites skew handling as orthogonal), and the
// integer values used by the DECIMAL experiments.
//
// All generators are driven by an explicit 64-bit seed through a
// SplitMix64 PRNG, so every experiment is exactly rerunnable.
package workload

import "math"

// RNG is a SplitMix64 pseudo-random number generator. It is tiny, fast,
// deterministic across platforms, and good enough for workload synthesis
// (it passes BigCrush as the seeding function of xoshiro).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint32n returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Uint32n(n uint32) uint32 {
	// Lemire's multiply-shift range reduction.
	return uint32((uint64(uint32(r.Uint64())) * uint64(n)) >> 32)
}

// Intn returns a uniform int in [0, n).
func (r *RNG) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Keys returns n keys drawn uniformly at random from [0, ngroups).
// As in the paper, when ngroups approaches n the number of *distinct*
// groups in the output is smaller than ngroups.
func Keys(seed uint64, n int, ngroups uint32) []uint32 {
	r := NewRNG(seed)
	ks := make([]uint32, n)
	for i := range ks {
		ks[i] = r.Uint32n(ngroups)
	}
	return ks
}

// ZipfKeys returns n keys over [0, ngroups) with Zipf(s) skew,
// via rejection-inversion (Hörmann). s > 1 required for a proper
// distribution; s in (0,1] uses a simple cutoff approximation adequate
// for benchmarks.
func ZipfKeys(seed uint64, n int, ngroups uint32, s float64) []uint32 {
	r := NewRNG(seed)
	ks := make([]uint32, n)
	// Inverse-CDF sampling over a precomputed harmonic table for small
	// domains; for large domains fall back to a power-law transform.
	if ngroups <= 1<<16 {
		cdf := make([]float64, ngroups)
		acc := 0.0
		for i := uint32(0); i < ngroups; i++ {
			acc += 1 / math.Pow(float64(i+1), s)
			cdf[i] = acc
		}
		total := cdf[ngroups-1]
		for i := range ks {
			u := r.Float64() * total
			lo, hi := 0, int(ngroups)-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cdf[mid] < u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			ks[i] = uint32(lo)
		}
		return ks
	}
	for i := range ks {
		u := r.Float64()
		// Approximate power-law: k ∝ u^(−1/(s−1)) clipped to the domain.
		x := math.Pow(u, -1/math.Max(s-1, 0.1))
		k := uint64(x) % uint64(ngroups)
		ks[i] = uint32(k)
	}
	return ks
}

// ValueDist selects a distribution for floating-point values.
type ValueDist int

// Value distributions used in the paper's accuracy experiments
// (Table II) and performance experiments.
const (
	// Uniform12 draws from U[1, 2) — every value has exponent 0.
	Uniform12 ValueDist = iota
	// Exp1 draws from Exp(λ=1).
	Exp1
	// MixedMag draws signed values spanning ~24 binades, a stand-in for
	// scientific data with mixed magnitudes.
	MixedMag
)

// String returns the distribution name used in reports.
func (d ValueDist) String() string {
	switch d {
	case Uniform12:
		return "U[1,2)"
	case Exp1:
		return "Exp(1)"
	case MixedMag:
		return "Mixed"
	default:
		return "?"
	}
}

// Values64 returns n float64 values from the given distribution.
func Values64(seed uint64, n int, dist ValueDist) []float64 {
	r := NewRNG(seed)
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = value64(r, dist)
	}
	return vs
}

// Values32 returns n float32 values from the given distribution.
func Values32(seed uint64, n int, dist ValueDist) []float32 {
	r := NewRNG(seed)
	vs := make([]float32, n)
	for i := range vs {
		vs[i] = float32(value64(r, dist))
	}
	return vs
}

func value64(r *RNG, dist ValueDist) float64 {
	switch dist {
	case Uniform12:
		return 1 + r.Float64()
	case Exp1:
		u := r.Float64()
		if u == 0 {
			u = 0x1p-53
		}
		return -math.Log(u)
	case MixedMag:
		return (r.Float64() - 0.5) * math.Ldexp(1, r.Intn(24)-12)
	default:
		panic("workload: unknown distribution")
	}
}

// IntValues returns n integer values in [1, maxVal]. The DECIMAL(38)
// test draws its values' distance from ±2^62 with it.
func IntValues(seed uint64, n int, maxVal int64) []int64 {
	r := NewRNG(seed)
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = 1 + int64(r.Uint64()%uint64(maxVal))
	}
	return vs
}

// Shuffle permutes xs in place with a Fisher–Yates shuffle driven by
// seed. Used to model physical reordering of the storage layer
// (Algorithm 1 of the paper).
func Shuffle[T any](seed uint64, xs []T) {
	r := NewRNG(seed)
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// ShufflePairs permutes keys and values with the same permutation,
// keeping pairs intact.
func ShufflePairs[K, V any](seed uint64, keys []K, vals []V) {
	if len(keys) != len(vals) {
		panic("workload: keys and values must have equal length")
	}
	r := NewRNG(seed)
	for i := len(keys) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
		vals[i], vals[j] = vals[j], vals[i]
	}
}

// DistinctGroups returns the number of distinct keys in ks.
// For ngroups ≈ n the paper notes the actual group count is below
// ngroups; reports use this to label results.
func DistinctGroups(ks []uint32) int {
	seen := make(map[uint32]struct{}, 1024)
	for _, k := range ks {
		seen[k] = struct{}{}
	}
	return len(seen)
}
