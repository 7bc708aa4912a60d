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
// The carry budget. Every contribution q a value makes to level l is a
// multiple of ulp(S(l)) with |q| ≤ 2^(e_l−13) (float32: 2^(e_l−6)), and
// at most NB = 2^11 (float32: 16) of them arrive between two carry
// propagations, so together they move S(l) by at most 0.25·ufp. A
// propagation leaves every live S(l) in [1.5, 1.75)·ufp; hence
//
//	S(l) ∈ [1.25, 2)·ufp at all times,
//
// its own binade, where every multiple of ulp is representable and no
// addition rounds. Merge keeps the same window: it adds a net in
// [−0.25, 0.25)·ufp to a propagated S(l). The carry step (carry64,
// carry32) relies on it: from [1.25, 2)·ufp one ±quarter reaches
// [1.5, 1.75)·ufp, so propagation is two comparisons, not a division.
//
// Kernels. Add is Algorithm 2 with the budget: each value is extracted
// and charged one unit, and carries propagate once per NB values;
// AddEager is Algorithm 2 as the paper writes it, propagating after
// every value. AddSlice and AddSliceVec are Algorithm 3's tiling: one
// scan of at most NB values for their largest magnitude replaces the
// per-value level check. AddSliceVec is the vector kernel (vec64.go):
// each level's contributions are summed in V = 4 lanes that start at
// zero — AVX2 registers on amd64, Go locals elsewhere — and the lane
// total is added to S(l) once per tile. By the budget, lane partials,
// lane totals and the updated S(l) are all exactly representable: the
// lane layout can change the cost of a sum, never a bit of it. The
// scan's answer may be supplied instead of found: Extent64 is it, for a
// whole slice, as one small value, and AddSliceExtent raises the top
// level once, to a slice's extent, and extracts every tile unscanned —
// to the same bits, since the level set is a function of the largest
// magnitude alone. Data that is summed more than once, such as a
// server's resident key runs, pays for the scan once.
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
	meta
}

// meta is a state's fields beside its levels, shared by both
// precisions: all but nAdds form an encoding's header.
type meta struct {
	eTop   int32 // exponent of level 1 extractor (multiple of W)
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
	*s = State64{meta: meta{levels: int8(levels)}}
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

// down64 is the ratio between the ufps (and the extractors) of two
// consecutive levels; multiplying a live level's power of two by it is
// exact.
const down64 = 1.0 / (1 << floatbits.W64)

// live returns the number of leading levels at or above
// LowestLevelExp64; the levels below them are dead. The state must be
// initialized.
func (s *State64) live() int {
	return min(int(s.levels), (int(s.eTop)-LowestLevelExp64)/floatbits.W64+1)
}

// carry64 is one carry step on a running sum S ∈ [1.25, 2)·ufp, the
// window the package doc proves: at most one quarter moves between S and
// its carry counter C to bring S into [1.5, 1.75)·ufp, exactly.
func carry64(s float64, c int64, ufp float64) (float64, int64) {
	if s < 1.5*ufp {
		return s + 0.25*ufp, c - 1
	}
	if s >= 1.75*ufp {
		return s - 0.25*ufp, c + 1
	}
	return s, c
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
	s.fit(eb)
	s.extract(b)
	s.spend(1)
}

// fit raises the top level, if it must, so that it absorbs a value with
// unbiased exponent eb.
func (s *State64) fit(eb int) {
	if !s.init || eb >= int(s.eTop)-floatbits.MantBits64+floatbits.W64-1 {
		s.raise(eb)
	}
}

// reserve propagates carries if n more extractions would overrun the
// budget.
func (s *State64) reserve(n int) {
	if s.nAdds+int32(n) > floatbits.NB64 {
		s.propagate()
	}
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
	s.raiseTo(eNeed)
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

// propagate performs carry-bit propagation on every live level
// (Algorithm 2, lines 14–18): the running sum is renormalized into
// [1.5·ufp, 1.75·ufp) and the quarter it lost or gained moves into the
// carry counter. All operations are exact.
func (s *State64) propagate() {
	ufp := floatbits.Pow2_64(int(s.eTop))
	for l := range s.live() {
		s.s[l], s.c[l] = carry64(s.s[l], s.c[l], ufp)
		ufp *= down64
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
	// Level l of s is level l−shift of o, at the same exponent; o's levels
	// below the union's top L are dropped (the same set for any merge
	// order).
	shift := (int(s.eTop) - int(o.eTop)) / floatbits.W64
	ufp := floatbits.Pow2_64(int(o.eTop))
	for l, live := shift, s.live(); l < live; l++ {
		quarter := 0.25 * ufp
		net := o.s[l-shift] - 1.5*ufp // exact net value of o's level, ∈ [−0.25, 0.5)·ufp
		c := s.c[l] + o.c[l-shift]
		if net >= quarter {
			// Spill a whole quarter into the carry counter first so the
			// following addition stays strictly below 2·ufp and therefore
			// exact (multiples of ulp are representable only up to 2·ufp).
			net -= quarter // exact
			c++
		}
		// Exact: S ∈ [1.5, 1.75)·ufp, |net| ≤ 0.25·ufp ⇒ sum ∈ [1.25, 2)·ufp.
		s.s[l], s.c[l] = carry64(s.s[l]+net, c, ufp)
		ufp *= down64
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
	// Fixed evaluation order, last (smallest) level first, per the paper;
	// each level is normalized as propagate would, without a copy.
	live := s.live()
	ufp := floatbits.Pow2_64(s.levelExp(live - 1))
	q := 0.0
	for l := live - 1; l >= 0; l-- {
		sl, c := carry64(s.s[l], s.c[l], ufp)
		term := (sl - 1.5*ufp) + 0.25*ufp*float64(c)
		q += term
		ufp *= 1 << floatbits.W64
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
		s.reserve(n)
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
// every input value (≈ 12 FP ops per level, a division and a floor
// among them): the cost the paper measures for the drop-in
// repro<ScalarT,L> type in Figure 4. No operator runs it; Add spends the
// carry budget instead. It stays as the independent oracle the tests
// hold Add and the tiled kernels to, and as the ablation's subject.
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
	s.fit(eb)
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
