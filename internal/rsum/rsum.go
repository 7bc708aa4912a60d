// Package rsum implements reproducible floating-point summation after
// Demmel & Nguyen as presented in "Reproducible Floating-Point Aggregation
// in RDBMSs" (Müller et al., ICDE'18), Section III.
//
// A summation state consists of L levels; level l holds a running sum S(l)
// anchored at a fixed extractor constant 1.5·2^{e_l} and a carry-bit
// counter C(l) counting multiples of 0.25·2^{e_l} that have been spilled
// out of S(l). Level exponents live on a fixed global grid (multiples of
// W), so the decomposition of every input value into per-level
// contributions is a pure function of the value — independent of
// processing order, chunking, merge tree, and thread count. Consequently
// the finalized sum is bit-reproducible for any execution over the same
// multiset of inputs.
//
// Deviation from the paper's presentation:
// the paper extracts against the running sum S(l) itself; under
// round-to-nearest-even the tie-break of that extraction depends on the
// parity of the accumulated sum and hence on processing order. Following
// Demmel & Nguyen's ReproBLAS we extract against the fixed extractor
// constant of the level instead, which makes the split deterministic at
// identical cost.
//
// Kernels. Add is Algorithm 2; AddSlice and AddSliceVec are Algorithm
// 3's tiling: one scan of at most NB values for their largest magnitude
// replaces the per-value level check, and carries propagate once per NB
// values. AddSliceVec is the vector kernel (vec64.go): each level's
// contributions are summed in V = 4 lanes that start at zero — AVX2
// registers on amd64, Go locals elsewhere — and the lane total is added
// to S(l) once per tile. Every contribution is a multiple of ulp(S(l))
// no larger than 2^(e_l−13), and at most NB = 2^11 of them arrive
// between propagations, so lane partials, lane totals and the updated
// S(l) are all exactly representable: the lane layout can change the
// cost of a sum, never a bit of it.
//
// Special values are handled reproducibly: NaNs and infinities are
// tracked in order-independent counters and resolved at finalization
// (NaN dominates; +Inf and −Inf together yield NaN). Inputs with
// magnitude above 2^986 (float64) / 2^119 (float32) are outside the
// supported extraction range and deterministically overflow to ±Inf.
package rsum

import (
	"math"

	"repro/internal/floatbits"
)

// MaxLevels is the largest supported number of summation levels. The
// paper evaluates L = 1..4; two extra levels are supported for
// experimentation with higher precision.
const MaxLevels = 6

// LowestLevelExp64 is the smallest level exponent at which the error-free
// transformation is still exact for float64 (the extractor must be a
// normal number). Levels below it are "dead": contributions that small
// are deterministically dropped.
const LowestLevelExp64 = -1000

// LowestLevelExp32 is the float32 analogue of LowestLevelExp64.
const LowestLevelExp32 = -126

// State64 is a reproducible summation state for float64 inputs
// (the repro<double,L> of the paper). The zero value is not usable;
// construct with NewState64 or call Reset.
//
// State64 is not safe for concurrent use; use one state per goroutine
// and Merge the results (merging is itself reproducible).
type State64 struct {
	s [MaxLevels]float64 // running sums, live levels only
	c [MaxLevels]int64   // carry counters (multiples of 0.25·ufp)

	eTop   int32 // exponent of level 1 extractor (multiple of W64)
	nAdds  int32 // extractions since the last carry propagation
	levels int8  // L
	init   bool  // true once the first finite non-zero value arrived

	nan    uint32 // number of NaN inputs seen
	posInf uint32 // number of +Inf (or positive-overflow) inputs seen
	negInf uint32 // number of −Inf (or negative-overflow) inputs seen
}

// NewState64 returns an empty summation state with the given number of
// levels (1 ≤ levels ≤ MaxLevels). Level counts outside the range panic:
// the level count is a static configuration choice, not data.
func NewState64(levels int) State64 {
	var s State64
	s.Reset(levels)
	return s
}

// Reset re-initializes the state to an empty sum with the given number
// of levels.
func (s *State64) Reset(levels int) {
	if levels < 1 || levels > MaxLevels {
		panic("rsum: level count out of range [1, MaxLevels]")
	}
	*s = State64{levels: int8(levels)}
}

// Levels returns the number of summation levels L.
func (s *State64) Levels() int { return int(s.levels) }

// IsEmpty reports whether the state has absorbed no finite non-zero
// values and no special values.
func (s *State64) IsEmpty() bool {
	return !s.init && s.nan == 0 && s.posInf == 0 && s.negInf == 0
}

// levelExp returns the extractor exponent of level l (0-based).
func (s *State64) levelExp(l int) int {
	return int(s.eTop) - l*floatbits.W64
}

// Add absorbs one value into the state.
func (s *State64) Add(b float64) {
	// Specials are tracked by counters; counting is order-independent.
	if b != b {
		s.nan++
		return
	}
	if b == 0 {
		return
	}
	eb := floatbits.Exponent64(b)
	if eb > floatbits.MaxInputExp64 { // includes ±Inf
		if b > 0 {
			s.posInf++
		} else {
			s.negInf++
		}
		return
	}
	if !s.init || eb >= int(s.eTop)-floatbits.MantBits64+floatbits.W64-1 {
		s.raise(eb)
	}
	s.extract(b)
	s.spend(1)
}

// spend charges n extractions to the carry budget and propagates once it
// is used up: a call never returns with the budget spent, so the next one
// may extract a value before it looks at the budget, as Add does.
func (s *State64) spend(n int) {
	s.nAdds += int32(n)
	if s.nAdds >= floatbits.NB64 {
		s.propagate()
	}
}

// raise makes the top level large enough to absorb a value with unbiased
// exponent eb, demoting existing levels as needed (Algorithm 2, lines
// 4–7). New level exponents stay on the fixed grid, so raising is
// order-independent: the final level set is determined by the maximum
// absolute input value alone.
func (s *State64) raise(eb int) {
	eNeed := floatbits.TopLevelExp64(eb)
	if !s.init {
		s.init = true
		s.eTop = int32(eNeed)
		for l := 0; l < int(s.levels); l++ {
			s.s[l] = s.freshLevel(l)
			s.c[l] = 0
		}
		return
	}
	if eNeed <= int(s.eTop) {
		return
	}
	shift := (eNeed - int(s.eTop)) / floatbits.W64
	s.eTop = int32(eNeed)
	L := int(s.levels)
	for l := L - 1; l >= 0; l-- {
		if l >= shift {
			s.s[l] = s.s[l-shift]
			s.c[l] = s.c[l-shift]
		} else {
			s.s[l] = s.freshLevel(l)
			s.c[l] = 0
		}
	}
}

// freshLevel returns the initial running sum of level l: the extractor
// constant 1.5·2^{e_l}, or 0 for dead levels below the representable
// range.
func (s *State64) freshLevel(l int) float64 {
	e := s.levelExp(l)
	if e < LowestLevelExp64 {
		return 0
	}
	return floatbits.Extractor64(e)
}

// extract splits b across the levels (Algorithm 2, lines 8–13).
// The caller guarantees the top level can absorb b.
func (s *State64) extract(b float64) {
	r := b
	for l := 0; l < int(s.levels); l++ {
		e := s.levelExp(l)
		if e < LowestLevelExp64 {
			return // dead level: remainder dropped deterministically
		}
		ext := floatbits.Extractor64(e)
		q := (r + ext) - ext // deterministic: fixed-parity extractor
		s.s[l] += q          // exact: same binade, multiple of ulp
		r -= q               // exact remainder
		// No early exit on r == 0: the kernel is deliberately
		// branch-free over levels so the cost scales with L as in the
		// paper (≈ 12 FP ops per level, Section IV).
	}
}

// propagate performs carry-bit propagation on every level (Algorithm 2,
// lines 14–18): the running sum is renormalized into
// [1.5·ufp, 1.75·ufp) and whole multiples of 0.25·ufp move into the
// carry counter. All operations are exact.
func (s *State64) propagate() {
	for l := 0; l < int(s.levels); l++ {
		e := s.levelExp(l)
		if e < LowestLevelExp64 {
			break
		}
		ufp := floatbits.Pow2_64(e)
		quarter := 0.25 * ufp
		delta := s.s[l] - 1.5*ufp // exact (Sterbenz)
		d := math.Floor(delta / quarter)
		if d != 0 {
			s.s[l] -= d * quarter // exact
			s.c[l] += int64(d)
		}
	}
	s.nAdds = 0
}

// Merge absorbs the other state into s. Both states must have the same
// number of levels. Merging is associative and commutative at the bit
// level, so parallel reductions over any merge tree yield identical
// results.
func (s *State64) Merge(o *State64) {
	if s.levels != o.levels {
		panic("rsum: merging states with different level counts")
	}
	s.nan += o.nan
	s.posInf += o.posInf
	s.negInf += o.negInf
	if !o.init {
		return
	}
	if !s.init {
		// Copy the numeric part of o; special counters were combined above.
		s.s, s.c, s.eTop, s.nAdds, s.init = o.s, o.c, o.eTop, o.nAdds, o.init
		return
	}
	// Align level grids: raise self to the union's top level.
	if o.eTop > s.eTop {
		// Raise using the exponent of a hypothetical value that would
		// demand o's top level.
		s.raiseTo(int(o.eTop))
	}
	s.propagate() // make room: S ∈ [1.5, 1.75)·ufp before adding nets
	shift := (int(s.eTop) - int(o.eTop)) / floatbits.W64
	for lo := 0; lo < int(o.levels); lo++ {
		l := lo + shift
		if l >= int(s.levels) {
			break // below the union's top-L levels: dropped (same set for any merge order)
		}
		e := s.levelExp(l)
		if e < LowestLevelExp64 {
			break
		}
		ufp := floatbits.Pow2_64(e)
		if o.s[lo] == 0 {
			continue // dead level in o
		}
		quarter := 0.25 * ufp
		net := o.s[lo] - 1.5*ufp // exact net value of o's level, ∈ [−0.25, 0.5)·ufp
		if net >= quarter {
			// Spill a whole quarter into the carry counter first so the
			// following addition stays strictly below 2·ufp and therefore
			// exact (multiples of ulp are representable only up to 2·ufp).
			net -= quarter // exact
			s.c[l]++
		}
		s.s[l] += net // exact: S ∈ [1.5,1.75)·ufp, |net| < 0.25·ufp ⇒ sum ∈ [1.25, 2)·ufp
		s.c[l] += o.c[lo]
		// Renormalize so the invariant holds for subsequent Adds.
		delta := s.s[l] - 1.5*ufp
		d := math.Floor(delta / quarter)
		if d != 0 {
			s.s[l] -= d * quarter
			s.c[l] += int64(d)
		}
	}
	s.nAdds = 0
}

// raiseTo raises the top level to exactly the grid exponent e
// (a multiple of W64, ≥ current top).
func (s *State64) raiseTo(e int) {
	if e <= int(s.eTop) {
		return
	}
	shift := (e - int(s.eTop)) / floatbits.W64
	s.eTop = int32(e)
	L := int(s.levels)
	for l := L - 1; l >= 0; l-- {
		if l >= shift {
			s.s[l] = s.s[l-shift]
			s.c[l] = s.c[l-shift]
		} else {
			s.s[l] = s.freshLevel(l)
			s.c[l] = 0
		}
	}
}

// Value finalizes the state and returns the reproducible sum (Eq. 1).
// The state is not modified; Value may be called repeatedly and
// interleaved with further Adds.
func (s *State64) Value() float64 {
	if s.nan > 0 || (s.posInf > 0 && s.negInf > 0) {
		return math.NaN()
	}
	if s.posInf > 0 {
		return math.Inf(1)
	}
	if s.negInf > 0 {
		return math.Inf(-1)
	}
	if !s.init {
		return 0
	}
	t := *s
	t.propagate()
	// Fixed evaluation order, last (smallest) level first, per the paper.
	q := 0.0
	for l := int(t.levels) - 1; l >= 0; l-- {
		e := t.levelExp(l)
		if e < LowestLevelExp64 {
			continue
		}
		ufp := floatbits.Pow2_64(e)
		term := (t.s[l] - 1.5*ufp) + 0.25*ufp*float64(t.c[l])
		q += term
	}
	return q
}

// Equal reports whether two states are bit-identical after
// normalization (carry propagation). It is primarily a test helper and
// a stronger property than equal Value().
func (s *State64) Equal(o *State64) bool {
	if s.levels != o.levels || s.nan != o.nan ||
		s.posInf != o.posInf || s.negInf != o.negInf || s.init != o.init {
		return false
	}
	if !s.init {
		return true
	}
	a, b := *s, *o
	a.propagate()
	b.propagate()
	if a.eTop != b.eTop {
		return false
	}
	for l := 0; l < int(a.levels); l++ {
		if math.Float64bits(a.s[l]) != math.Float64bits(b.s[l]) || a.c[l] != b.c[l] {
			return false
		}
	}
	return true
}

// AddSlice absorbs a slice of values. It applies the tiling optimization
// of Algorithm 3: the chunk maximum is checked once so the per-value
// level check disappears from the inner loop, and carry bits are
// propagated once per NB values.
func (s *State64) AddSlice(bs []float64) {
	for len(bs) > 0 {
		n := min(len(bs), floatbits.NB64)
		chunk := bs[:n]
		bs = bs[n:]
		if !s.admit(chunk, &kernel) {
			continue
		}
		for _, b := range chunk {
			if b == 0 {
				continue
			}
			s.extract(b)
		}
		s.spend(n)
	}
}

// AddEager absorbs one value with per-element carry-bit propagation —
// Algorithm 2 exactly as written in the paper, where lines 14–18 run for
// every input value (≈ 12 FP ops per level). This is the cost model of
// the drop-in repro<ScalarT,L> data type of Section IV; the batched
// kernels (AddSlice, AddSliceVec) amortize the propagation over NB
// values instead (the tiling of Algorithm 3).
//
// AddEager and Add produce bit-identical normalized states: carry
// propagation only moves whole multiples of 0.25·ufp between S(l) and
// C(l) and every operation involved is exact.
func (s *State64) AddEager(b float64) {
	if b != b {
		s.nan++
		return
	}
	if b == 0 {
		return
	}
	eb := floatbits.Exponent64(b)
	if eb > floatbits.MaxInputExp64 {
		if b > 0 {
			s.posInf++
		} else {
			s.negInf++
		}
		return
	}
	if !s.init || eb >= int(s.eTop)-floatbits.MantBits64+floatbits.W64-1 {
		s.raise(eb)
	}
	// Fused extraction + carry propagation per level.
	r := b
	for l := 0; l < int(s.levels); l++ {
		e := s.levelExp(l)
		if e < LowestLevelExp64 {
			return
		}
		ext := floatbits.Extractor64(e)
		q := (r + ext) - ext
		sum := s.s[l] + q
		r -= q
		ufp := floatbits.Pow2_64(e)
		quarter := 0.25 * ufp
		delta := sum - 1.5*ufp
		if d := math.Floor(delta / quarter); d != 0 {
			sum -= d * quarter
			s.c[l] += int64(d)
		}
		s.s[l] = sum
	}
}
