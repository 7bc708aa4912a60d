package rsum

import (
	"math"

	"repro/internal/floatbits"
)

// V is the number of accumulator lanes of the vectorized kernel,
// matching the paper's V = 4 (double-precision values on AVX).
const V = 4

// The vectorized kernel (RSUM SIMD, Algorithm 3) is one driver, pure Go
// on every architecture, over a tile primitive with two implementations:
// AVX2 assembly (vec64_amd64.s, picked at init where CPUID has it) and Go
// (vec64_generic.go, the only one elsewhere and the oracle the tests hold
// the assembly to).
//
// A tile is at most NB64 values that share one carry budget. The driver
// scans it once for its largest magnitude (AddSliceExtent is given the
// whole slice's instead), raises the top level, propagates carries if
// the budget demands it and hands the tile's whole groups of V values
// to the primitive (addTile, the one body both run), which sums each
// level's contributions q into V lanes that start at zero — not at the
// level's 1.5·ufp anchor. Nothing rounds on the way: every q is a
// multiple of ulp = 2^(e−52) with |q| ≤ 2^(e−13), and at most
// NB64 = 2^11 of them share the budget, so each lane partial and the
// V-lane total are multiples of ulp bounded by 0.25·ufp (50 bits);
// adding that total to a running sum S ∈ [1.5, 1.75)·ufp that has
// already taken the budget's earlier q's lands in [1.25, 2)·ufp, S's own
// binade — the argument AddSlice relies on. How the q's are laid out in
// lanes therefore cannot change a bit of the state, only the cost: the
// lanes carry no anchor, no carry counter and no renormalization of
// their own; the primitive adds them up (the horizontal reduction of
// Eq. 2–3) and the driver adds the total to S, once per level and tile.

// tileKernel is one implementation of the tile primitive.
type tileKernel struct {
	name string
	// scan returns the largest |x| of tile (0 for an empty or all-zero
	// one; unspecified once nan is set) and whether it holds a NaN.
	scan func(tile []float64) (m float64, nan bool)
	// extract splits every value of tile, whose length is a multiple of
	// V, against the extractors of live levels — ext0 the first, each
	// next one 2^W64 times smaller — and returns in sum[l], l < live, the
	// total of the level-l contributions, formed in V lanes that start
	// at zero. (Scalars in, an array out by value: memory handed through
	// a func value escapes, and a scratch array in the driver would be
	// heap-allocated on every call.)
	extract func(tile []float64, ext0 float64, live int) (sum [MaxLevels]float64)
}

// AddSliceVec absorbs a slice of values using the vectorized summation
// kernel (RSUM SIMD, Algorithm 3). It produces the same bits as Add and
// AddSlice applied to any permutation of the same values.
func (s *State64) AddSliceVec(bs []float64) { s.addSliceVec(bs, &kernel) }

func (s *State64) addSliceVec(bs []float64, k *tileKernel) {
	for len(bs) > 0 {
		n := min(len(bs), floatbits.NB64)
		tile := bs[:n]
		bs = bs[n:]
		if s.admit(tile, k) {
			s.addTile(tile, k)
		}
	}
}

// Extent is what the tile scan finds in a slice, as one small value: the
// unbiased exponent of its largest magnitude, ExtentZero for a slice of
// only ±0 (or none), or ExtentSpecial for one that holds a NaN, an
// infinity or a magnitude ≥ 2^987. It depends only on the slice's
// multiset of values.
type Extent int16

// The two extents that are not an exponent.
const (
	ExtentZero    Extent = math.MinInt16
	ExtentSpecial Extent = math.MaxInt16
)

// Extent64 returns the extent of bs: the scan AddSliceVec makes of every
// tile, made once over the whole slice.
func Extent64(bs []float64) Extent { return extent64(bs, &kernel) }

func extent64(bs []float64, k *tileKernel) Extent { return extentOf(k.scan(bs)) }

// extentOf is the extent of a slice whose scan found m and nan.
func extentOf(m float64, nan bool) Extent {
	switch {
	case nan || m >= 0x1p987:
		return ExtentSpecial
	case m == 0:
		return ExtentZero
	}
	return Extent(floatbits.Exponent64(m))
}

// AddSliceExtent absorbs bs, whose extent is x (Extent64(bs)), to the
// state AddSliceVec(bs) leaves, without scanning it: the top level is
// raised once, to x, and every tile goes straight to extraction. The
// level set is a function of the multiset's largest magnitude, so
// raising first is AddSliceVec over the permutation that puts that value
// first, and the canonical encoding is the same. A slice holding a
// special value takes AddSliceVec; one of only zeros adds nothing. An x
// that is not bs's extent leaves an unspecified state.
func (s *State64) AddSliceExtent(bs []float64, x Extent) { s.addSliceExtent(bs, x, &kernel) }

func (s *State64) addSliceExtent(bs []float64, x Extent, k *tileKernel) {
	switch x {
	case ExtentSpecial:
		s.addSliceVec(bs, k)
		return
	case ExtentZero:
		return
	}
	s.fit(int(x))
	for len(bs) > 0 {
		n := min(len(bs), floatbits.NB64)
		s.addTile(bs[:n], k)
		bs = bs[n:]
	}
}

// admit prepares the state to extract a tile of at most NB64 values
// without a per-value check: the top level is raised to the tile's
// largest magnitude. It reports false when nothing is left to extract —
// the tile is all zeros, or it holds a NaN, an infinity or a magnitude
// ≥ 2^987 and went through Add value by value.
func (s *State64) admit(tile []float64, k *tileKernel) bool {
	switch x := extentOf(k.scan(tile)); x {
	case ExtentSpecial:
		for _, b := range tile {
			s.Add(b)
		}
		return false
	case ExtentZero:
		return false
	default:
		s.fit(int(x))
		return true
	}
}

// addTile extracts a tile of at most NB64 finite values that the top
// level absorbs, propagating carries first if the tile does not fit the
// remaining budget: the tile's whole groups of V values through the
// primitive, the rest one at a time.
func (s *State64) addTile(tile []float64, k *tileKernel) {
	n := len(tile)
	s.reserve(n)
	body := n &^ (V - 1)
	if body > 0 {
		live := s.live()
		sum := k.extract(tile[:body], floatbits.Extractor64(int(s.eTop)), live)
		for l := 0; l < live; l++ {
			s.s[l] += sum[l] // exact, see above
		}
	}
	for _, b := range tile[body:] {
		s.extract(b)
	}
	s.spend(n)
}
