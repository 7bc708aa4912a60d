package rsum

import (
	"math"

	"repro/internal/floatbits"
)

// State32 is a reproducible summation state for float32 inputs
// (the repro<float,L> of the paper). See State64 for the full contract;
// State32 mirrors it with single-precision parameters (m = 23, W = 18,
// NB = 16). The numeric kernels are deliberately kept as concrete
// float32 code rather than shared generics: every operation must execute
// in single precision for the exactness arguments to hold, and the inner
// loops are performance-critical.
type State32 struct {
	s [MaxLevels]float32
	c [MaxLevels]int64
	meta
}

// NewState32 returns an empty single-precision summation state.
func NewState32(levels int) State32 {
	var s State32
	s.Reset(levels)
	return s
}

// Reset re-initializes the state to an empty sum with the given number
// of levels.
func (s *State32) Reset(levels int) {
	if levels < 1 || levels > MaxLevels {
		panic("rsum: level count out of range [1, MaxLevels]")
	}
	*s = State32{meta: meta{levels: int8(levels)}}
}

// Levels returns the number of summation levels L.
func (s *State32) Levels() int { return int(s.levels) }

// IsEmpty reports whether the state has absorbed no values.
func (s *State32) IsEmpty() bool {
	return !s.init && s.nan == 0 && s.posInf == 0 && s.negInf == 0
}

func (s *State32) levelExp(l int) int {
	return int(s.eTop) - l*floatbits.W32
}

// down32 is the single-precision down64.
const down32 = 1.0 / (1 << floatbits.W32)

// live returns the number of live leading levels; see State64.live.
func (s *State32) live() int {
	return min(int(s.levels), (int(s.eTop)-LowestLevelExp32)/floatbits.W32+1)
}

// carry32 is the single-precision carry64.
func carry32(s float32, c int64, ufp float32) (float32, int64) {
	if s < 1.5*ufp {
		return s + 0.25*ufp, c - 1
	}
	if s >= 1.75*ufp {
		return s - 0.25*ufp, c + 1
	}
	return s, c
}

// Add absorbs one value into the state.
func (s *State32) Add(b float32) {
	if b != b {
		s.nan++
		return
	}
	if b == 0 {
		return
	}
	eb := floatbits.Exponent32(b)
	if eb > floatbits.MaxInputExp32 {
		if b > 0 {
			s.posInf++
		} else {
			s.negInf++
		}
		return
	}
	if !s.init || eb >= int(s.eTop)-floatbits.MantBits32+floatbits.W32-1 {
		s.raise(eb)
	}
	s.extract(b)
	s.spend(1)
}

// spend charges n extractions to the carry budget; see State64.spend.
func (s *State32) spend(n int) {
	s.nAdds += int32(n)
	if s.nAdds >= floatbits.NB32 {
		s.propagate()
	}
}

func (s *State32) raise(eb int) {
	eNeed := floatbits.TopLevelExp32(eb)
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

func (s *State32) raiseTo(e int) {
	if e <= int(s.eTop) {
		return
	}
	shift := (e - int(s.eTop)) / floatbits.W32
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

func (s *State32) freshLevel(l int) float32 {
	e := s.levelExp(l)
	if e < LowestLevelExp32 {
		return 0
	}
	return floatbits.Extractor32(e)
}

func (s *State32) extract(b float32) {
	r := b
	for l := 0; l < int(s.levels); l++ {
		e := s.levelExp(l)
		if e < LowestLevelExp32 {
			return
		}
		ext := floatbits.Extractor32(e)
		q := (r + ext) - ext
		s.s[l] += q // exact: same binade, multiple of ulp
		r -= q      // exact remainder
		// No early exit on r == 0: the kernel is deliberately
		// branch-free over levels so the cost scales with L as in the
		// paper (≈ 12 FP ops per level, Section IV).
	}
}

func (s *State32) propagate() {
	ufp := floatbits.Pow2_32(int(s.eTop))
	for l := range s.live() {
		s.s[l], s.c[l] = carry32(s.s[l], s.c[l], ufp)
		ufp *= down32
	}
	s.nAdds = 0
}

// Merge absorbs the other state into s; see State64.Merge.
func (s *State32) Merge(o *State32) {
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
		s.s, s.c, s.eTop, s.nAdds, s.init = o.s, o.c, o.eTop, o.nAdds, o.init
		return
	}
	if o.eTop > s.eTop {
		s.raiseTo(int(o.eTop))
	}
	s.propagate()
	shift := (int(s.eTop) - int(o.eTop)) / floatbits.W32
	ufp := floatbits.Pow2_32(int(o.eTop))
	for l, live := shift, s.live(); l < live; l++ {
		quarter := 0.25 * ufp
		net := o.s[l-shift] - 1.5*ufp
		c := s.c[l] + o.c[l-shift]
		if net >= quarter {
			net -= quarter
			c++
		}
		s.s[l], s.c[l] = carry32(s.s[l]+net, c, ufp)
		ufp *= down32
	}
	s.nAdds = 0
}

// Value finalizes the state and returns the reproducible sum.
func (s *State32) Value() float32 {
	if s.nan > 0 || (s.posInf > 0 && s.negInf > 0) {
		return float32(math.NaN())
	}
	if s.posInf > 0 {
		return float32(math.Inf(1))
	}
	if s.negInf > 0 {
		return float32(math.Inf(-1))
	}
	if !s.init {
		return 0
	}
	live := s.live()
	ufp := floatbits.Pow2_32(s.levelExp(live - 1))
	q := float32(0)
	for l := live - 1; l >= 0; l-- {
		sl, c := carry32(s.s[l], s.c[l], ufp)
		term := (sl - 1.5*ufp) + 0.25*ufp*float32(c)
		q += term
		ufp *= 1 << floatbits.W32
	}
	return q
}

// Equal reports whether two states are bit-identical after normalization.
func (s *State32) Equal(o *State32) bool {
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
		if math.Float32bits(a.s[l]) != math.Float32bits(b.s[l]) || a.c[l] != b.c[l] {
			return false
		}
	}
	return true
}

// AddSlice absorbs a slice of values with the tiling optimization.
func (s *State32) AddSlice(bs []float32) {
	for len(bs) > 0 {
		n := min(len(bs), floatbits.NB32)
		chunk := bs[:n]
		bs = bs[n:]
		if !s.admit(chunk) {
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

// admit prepares the state to extract a tile of at most NB32 values
// without a per-value check; see State64.admit. The magnitude bound of
// the slow path is 2^120.
func (s *State32) admit(tile []float32) bool {
	m, nan := scanTile32(tile)
	if nan || m >= 0x1p120 {
		for _, b := range tile {
			s.Add(b)
		}
		return false
	}
	if m == 0 {
		return false
	}
	if e := floatbits.Exponent32(m); !s.init || e >= int(s.eTop)-floatbits.MantBits32+floatbits.W32-1 {
		s.raise(e)
	}
	if s.nAdds+int32(len(tile)) > floatbits.NB32 {
		s.propagate()
	}
	return true
}

// scanTile32 returns the largest |x| of tile and whether it holds a NaN.
func scanTile32(tile []float32) (m float32, nan bool) {
	for _, b := range tile {
		a := b
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
		if b != b { // NaN never wins the max comparison; check explicitly
			return 0, true
		}
	}
	return m, false
}

// AddEager absorbs one value with per-element carry-bit propagation;
// see State64.AddEager.
func (s *State32) AddEager(b float32) {
	if b != b {
		s.nan++
		return
	}
	if b == 0 {
		return
	}
	eb := floatbits.Exponent32(b)
	if eb > floatbits.MaxInputExp32 {
		if b > 0 {
			s.posInf++
		} else {
			s.negInf++
		}
		return
	}
	if !s.init || eb >= int(s.eTop)-floatbits.MantBits32+floatbits.W32-1 {
		s.raise(eb)
	}
	r := b
	for l := 0; l < int(s.levels); l++ {
		e := s.levelExp(l)
		if e < LowestLevelExp32 {
			return
		}
		ext := floatbits.Extractor32(e)
		q := (r + ext) - ext
		sum := s.s[l] + q
		r -= q
		ufp := floatbits.Pow2_32(e)
		quarter := 0.25 * ufp
		delta := sum - 1.5*ufp
		if d := float32(math.Floor(float64(delta / quarter))); d != 0 {
			sum -= d * quarter
			s.c[l] += int64(d)
		}
		s.s[l] = sum
	}
}
