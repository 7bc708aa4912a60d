// Package floatbits provides low-level IEEE-754 bit manipulation used by
// the reproducible summation algorithms: exponent extraction, powers of
// two, exponent grids, and the extractor constants a value is split
// against, deterministically and without error, as q = (b ⊕ ext) ⊖ ext.
//
// Terminology follows Goldberg ("What Every Computer Scientist Should Know
// About Floating-Point Arithmetic") and the paper: for x = M·2^E with
// M ∈ [1,2), ufp(x) = 2^E is the value of the first mantissa bit and
// ulp(x) = 2^(E−m) the value of the last, where m is the number of
// explicit mantissa bits (52 for float64, 23 for float32).
package floatbits

import (
	"math"
	"math/bits"
)

// Format parameters of the two IEEE-754 binary formats used in the paper.
const (
	// MantBits64 is the number of explicit mantissa bits of float64 (m).
	MantBits64 = 52
	// MantBits32 is the number of explicit mantissa bits of float32 (m).
	MantBits32 = 23

	// W64 is the logarithm of the ratio between two consecutive
	// extractors for double precision. The paper (Sec. III-C) recommends
	// W = 40 for double precision.
	W64 = 40
	// W32 is the extractor ratio exponent for single precision (W = 18).
	W32 = 18

	// NB64 is the tile size between carry-bit propagations for float64.
	// The bound is NB ≤ 2^(m−W−1) = 2^11; with this choice the running
	// sum drifts by at most 0.25·ufp between propagations and therefore
	// never changes its exponent.
	NB64 = 1 << (MantBits64 - W64 - 1) // 2048
	// NB32 is the tile size between carry-bit propagations for float32
	// (2^(23−18−1) = 16).
	NB32 = 1 << (MantBits32 - W32 - 1) // 16

	bias64     = 1023
	bias32     = 127
	expMask64  = 0x7FF
	expMask32  = 0xFF
	mantMask64 = (uint64(1) << MantBits64) - 1
	mantMask32 = (uint32(1) << MantBits32) - 1

	// MaxLevelExp64 is the largest supported level exponent for float64
	// (a multiple of W64). Extractors of the form 1.5·2^e must stay
	// comfortably below the overflow threshold even after the running
	// sum drifts within its binade.
	MaxLevelExp64 = 1000 // = 25·W64
	// MinLevelExp64 is the smallest supported level exponent for float64
	// (a multiple of W64). Below this, ulp(extractor) would enter the
	// subnormal range and the error-free transformation would no longer
	// be exact; contributions that small are deterministically dropped.
	MinLevelExp64 = -960 // = −24·W64

	// MaxLevelExp32 and MinLevelExp32 are the float32 analogues.
	MaxLevelExp32 = 126  // = 7·W32
	MinLevelExp32 = -108 // = −6·W32

	// MaxInputExp64 is the largest unbiased exponent an input value may
	// have and still be representable at the top supported level:
	// the level-shift rule needs e_top ≥ exp(b) + m − W + 2.
	MaxInputExp64 = MaxLevelExp64 - (MantBits64 - W64 + 2) // 986
	// MaxInputExp32 is the float32 analogue.
	MaxInputExp32 = MaxLevelExp32 - (MantBits32 - W32 + 2) // 119
)

// Exponent64 returns the unbiased binary exponent of x, i.e.
// floor(log2 |x|), for finite non-zero x. Subnormals are handled by
// normalizing the mantissa. The result for ±0, ±Inf, and NaN is
// unspecified; callers filter those beforehand.
func Exponent64(x float64) int {
	b := math.Float64bits(x)
	e := int(b>>MantBits64) & expMask64
	if e != 0 { // normal
		return e - bias64
	}
	// Subnormal: exponent of the highest set mantissa bit.
	m := b & mantMask64
	return -bias64 - MantBits64 + bitLen64(m)
}

// Exponent32 is the float32 analogue of Exponent64.
func Exponent32(x float32) int {
	b := math.Float32bits(x)
	e := int(b>>MantBits32) & expMask32
	if e != 0 {
		return e - bias32
	}
	m := b & mantMask32
	return -bias32 - MantBits32 + bitLen32(m)
}

func bitLen64(x uint64) int { return bits.Len64(x) }

func bitLen32(x uint32) int { return bits.Len32(x) }

// Pow2_64 returns 2^e as a float64 for e in the normal range
// [−1022, 1023]. It panics on out-of-range exponents: levels are clamped
// to [MinLevelExp64, MaxLevelExp64] long before this limit.
func Pow2_64(e int) float64 {
	if e < -bias64+1 || e > bias64 {
		if e >= -bias64-MantBits64+1 && e <= -bias64 {
			// Subnormal powers of two are exactly representable.
			return math.Float64frombits(uint64(1) << (e + bias64 + MantBits64 - 1))
		}
		panic("floatbits: Pow2_64 exponent out of range")
	}
	return math.Float64frombits(uint64(e+bias64) << MantBits64)
}

// Pow2_32 returns 2^e as a float32 for e in the normal range.
func Pow2_32(e int) float32 {
	if e < -bias32+1 || e > bias32 {
		if e >= -bias32-MantBits32+1 && e <= -bias32 {
			return math.Float32frombits(uint32(1) << (e + bias32 + MantBits32 - 1))
		}
		panic("floatbits: Pow2_32 exponent out of range")
	}
	return math.Float32frombits(uint32(e+bias32) << MantBits32)
}

// Extractor64 returns the level extractor constant 1.5·2^e.
// Extractors have a fixed mantissa (only the top bit set), so the
// round-half-even tie-break of the split (b ⊕ ext) ⊖ ext is a pure
// function of the value being split — this is what makes extraction
// order-independent.
func Extractor64(e int) float64 {
	return math.Float64frombits(uint64(e+bias64)<<MantBits64 | uint64(1)<<(MantBits64-1))
}

// Extractor32 returns 1.5·2^e as a float32.
func Extractor32(e int) float32 {
	return math.Float32frombits(uint32(e+bias32)<<MantBits32 | uint32(1)<<(MantBits32-1))
}

// GridCeil returns the smallest multiple of w that is ≥ e.
func GridCeil(e, w int) int {
	q := e / w
	if e > q*w {
		q++
	}
	return q * w
}

// TopLevelExp64 returns the grid-aligned exponent of the first (largest)
// level able to absorb a value with unbiased exponent eb: the smallest
// multiple of W64 that is ≥ eb + m − W + 2, clamped to the supported
// level range.
func TopLevelExp64(eb int) int {
	e := GridCeil(eb+MantBits64-W64+2, W64)
	if e > MaxLevelExp64 {
		e = MaxLevelExp64
	}
	if e < MinLevelExp64 {
		e = MinLevelExp64
	}
	return e
}

// TopLevelExp32 is the float32 analogue of TopLevelExp64.
func TopLevelExp32(eb int) int {
	e := GridCeil(eb+MantBits32-W32+2, W32)
	if e > MaxLevelExp32 {
		e = MaxLevelExp32
	}
	if e < MinLevelExp32 {
		e = MinLevelExp32
	}
	return e
}
