package sqlagg

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/rsum"
)

// The physical tuple. A GROUP BY's spec list is logical: SUM(x), AVG(x),
// VAR_POP(x) and COUNT(*) are four specs but only three things to
// accumulate — Σx, Σx² and the row count n. TuplePlan maps a spec list
// to its distinct physical components, as the catalog rows name them,
// and to one finaliser per spec, the row's fin over those components.
// It is the init / step / merge / encode / finalize of every aggregate;
// its step folds a batch of rows one component at a time (AddBatch, of
// which AddRow is the one-row case). Tuple is one group's components
// plus the §V-A summation buffers in front of its sums. It is the
// payload of every aggregation table of the tuple pipeline and, flushed,
// the per-key record of a shuffle frame.

// sumComp is one reproducible sum over a column or over its squares.
// Specs that read the same column at different level counts get
// different components: the level count is part of the state.
type sumComp struct {
	col, levels int
	square      bool
}

// extComp is one running extremum of a column.
type extComp struct {
	col   int
	isMax bool
}

// finaliser computes one logical spec from the physical components with
// its catalog row's fin: a indexes Σx (or the extremum, for MIN/MAX), b
// indexes Σx² for the variance family.
type finaliser struct {
	kind AggKind
	a, b int
}

// TuplePlan is the physical plan of one spec list.
type TuplePlan struct {
	sums  []sumComp
	exts  []extComp
	count bool // some spec reads the shared row counter
	fins  []finaliser
	width int
}

// NewTuplePlan plans specs: components are numbered in order of first
// use, so the plan — and with it the wire layout — is a pure function
// of the spec list.
func NewTuplePlan(specs []AggSpec) (*TuplePlan, error) {
	if err := checkSpecCount(len(specs)); err != nil {
		return nil, err
	}
	p := &TuplePlan{fins: make([]finaliser, len(specs))}
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		d, f := sp.Kind.def(), finaliser{kind: sp.Kind}
		if d.sums > 0 {
			f.a = component(&p.sums, sumComp{sp.Col, sp.ResolvedLevels(), false})
		}
		if d.sums > 1 {
			f.b = component(&p.sums, sumComp{sp.Col, sp.ResolvedLevels(), true})
		}
		if d.ext {
			f.a = component(&p.exts, extComp{sp.Col, d.isMax})
		}
		p.count = p.count || d.count
		p.fins[i] = f
	}
	for _, c := range p.sums {
		p.width += stateSize(c.levels)
	}
	if p.count {
		p.width += countSize
	}
	p.width += len(p.exts) * minmaxSize
	return p, nil
}

// component returns the index of want in *comps, appending it on
// first use.
func component[T comparable](comps *[]T, want T) int {
	for i, c := range *comps {
		if c == want {
			return i
		}
	}
	*comps = append(*comps, want)
	return len(*comps) - 1
}

// Width returns the encoded size of one tuple: the Σ states in plan
// order, then the 8-byte row count if any spec needs it, then the
// 9-byte extrema. A single-SUM plan is one bare rsum state.
func (p *TuplePlan) Width() int { return p.width }

// TupleBytes returns the memory one tuple without summation buffers
// occupies in an aggregation table: what a table's cache footprint is
// planned from.
func (p *TuplePlan) TupleBytes() int {
	return int(unsafe.Sizeof(Tuple{})) +
		len(p.sums)*int(unsafe.Sizeof(rsum.State64{})) +
		len(p.exts)*int(unsafe.Sizeof(minmaxState{}))
}

// Reads reports whether the plan's components read column col (a
// COUNT reads none).
func (p *TuplePlan) Reads(col int) bool {
	for _, c := range p.sums {
		if c.col == col {
			return true
		}
	}
	for _, c := range p.exts {
		if c.col == col {
			return true
		}
	}
	return false
}

// RowBytes returns the bytes one row appends to a tuple's summation
// buffers — 8 per sum, 0 for a plan without sums, which never buffers:
// what a table's buffer length is planned from.
func (p *TuplePlan) RowBytes() int { return 8 * len(p.sums) }

// Specs returns the number of specs planned: the values Finalize
// appends per tuple.
func (p *TuplePlan) Specs() int { return len(p.fins) }

// Tuple is one group's physical aggregate state.
type Tuple struct {
	sums []rsum.State64
	exts []minmaxState
	n    int64
	// buf holds the values not yet summed, column-major: sum j's are
	// buf[j*bsz : j*bsz+fill]. Every row appends to every column, so
	// one fill index serves them all.
	buf       []float64
	bsz, fill int
}

// NewTuple returns an empty tuple with bsz-value summation buffers
// (0: none, rows go straight into the sums).
func (p *TuplePlan) NewTuple(bsz int) Tuple {
	s := TupleSlab{plan: p, bsz: bsz, per: 1}
	return s.NewTuple()
}

// slabBytes caps one slab of a TupleSlab, so a table whose hint
// overshoots its groups over-allocates by at most about this much.
const slabBytes = 1 << 20

// TupleSlab allocates the tuples of one aggregation table. A tuple's
// sums (pointer-free), extrema and summation buffers are carved from
// arrays shared by a slab of tuples instead of made per group, so a
// table costs O(slabs) allocations and the collector traces a handful
// of objects where it traced one or more per group.
type TupleSlab struct {
	plan     *TuplePlan
	bsz, per int // summation buffer length; tuples per slab
	sums     []rsum.State64
	exts     []minmaxState
	buf      []float64
}

// NewSlab returns the allocator for a table expected to hold about
// hint tuples with bsz-value summation buffers: slabs hold hint tuples,
// capped at slabBytes, so a four-group table allocates four tuples'
// worth and a 2^16-group one a few dozen slabs.
func (p *TuplePlan) NewSlab(bsz, hint int) *TupleSlab {
	tuple := len(p.sums)*(int(unsafe.Sizeof(rsum.State64{}))+8*bsz) + len(p.exts)*int(unsafe.Sizeof(minmaxState{}))
	return &TupleSlab{plan: p, bsz: bsz, per: max(1, min(hint, slabBytes/max(tuple, 1)))}
}

// NewTuple returns an empty tuple carved from the slab.
func (s *TupleSlab) NewTuple() Tuple {
	p := s.plan
	ns, ne := len(p.sums), len(p.exts)
	if len(s.sums) < ns {
		s.sums = make([]rsum.State64, ns*s.per)
	}
	t := Tuple{sums: s.sums[:ns:ns]}
	s.sums = s.sums[ns:]
	for i, c := range p.sums {
		t.sums[i].Reset(c.levels)
	}
	if ne > 0 {
		if len(s.exts) < ne {
			s.exts = make([]minmaxState, ne*s.per)
		}
		t.exts, s.exts = s.exts[:ne:ne], s.exts[ne:]
		for i, c := range p.exts {
			t.exts[i].isMax = c.isMax
		}
	}
	if nb := s.bsz * ns; nb > 0 {
		if len(s.buf) < nb {
			s.buf = make([]float64, nb*s.per)
		}
		t.bsz, t.buf, s.buf = s.bsz, s.buf[:nb:nb], s.buf[nb:]
	}
	return t
}

// Reset empties the tuple, keeping its shape and buffer allocation, so
// a reused aggregation table recycles its payloads in place.
func (t *Tuple) Reset() {
	for i := range t.sums {
		t.sums[i].Reset(t.sums[i].Levels())
	}
	for i := range t.exts {
		t.exts[i].Reset()
	}
	t.n, t.fill = 0, 0
}

// AddRow folds row `row` of cols into t: the one-row case of AddBatch.
func (p *TuplePlan) AddRow(t *Tuple, cols [][]float64, row int) {
	var pos [1]int
	p.fold([]*Tuple{t}, cols, row, pos[:])
}

// BatchRows is the most rows one AddBatch folds.
const BatchRows = 256

// AddBatch folds rows lo, lo+1, … of cols into ts[0], ts[1], …: row
// lo+i into *ts[i]. ts holds at most BatchRows tuples, all with one
// buffer length (the tuples of one table do), and may name a tuple more
// than once. Every tuple receives its rows in row order and flushes at
// the same fill as one AddRow per row would, so its states are the same
// bits at every flush.
func (p *TuplePlan) AddBatch(ts []*Tuple, cols [][]float64, lo int) {
	var pos [BatchRows]int
	p.fold(ts, cols, lo, pos[:len(ts)])
}

// fold is the body of AddRow and AddBatch. It folds ts a segment at a
// time: reserve counts the segment's rows and takes their buffer slots,
// then each sum component stores (with no buffer: adds) the segment's
// values in a loop of its own, x and x² apart, and each extremum runs
// over them; the tuple whose buffer the segment filled is flushed before
// the next segment.
func (p *TuplePlan) fold(ts []*Tuple, cols [][]float64, lo int, pos []int) {
	for len(ts) > 0 {
		n := reserve(ts, pos)
		seg, at, bsz := ts[:n], pos[:n], ts[0].bsz
		for j, c := range p.sums {
			if col := cols[c.col][lo : lo+n]; bsz == 0 {
				addColumn(seg, j, col, c.square)
			} else {
				storeColumn(seg, at, j*bsz, col, c.square)
			}
		}
		for j, c := range p.exts {
			for i, v := range cols[c.col][lo : lo+n] {
				seg[i].exts[j].Add(v)
			}
		}
		if t := seg[n-1]; bsz > 0 && t.fill == bsz {
			t.flush()
		}
		ts, pos, lo = ts[n:], pos[n:], lo+n
	}
}

// reserve counts a row into each of ts in turn and takes its buffer slot
// (pos[i]), up to and including the first row that fills its tuple's
// buffer, and returns how many rows it took: all of them when the
// tuples have no buffers. The tuples must share one buffer length.
func reserve(ts []*Tuple, pos []int) int {
	bsz := ts[0].bsz
	if bsz == 0 {
		for _, t := range ts {
			t.n++ // read only when p.count; cheaper than testing it per row
		}
		return len(ts)
	}
	pos = pos[:len(ts)]
	for i, t := range ts {
		if t.bsz != bsz {
			panic("sqlagg: one batch folds tuples of different buffer lengths")
		}
		t.n++
		pos[i] = t.fill
		if t.fill++; t.fill == bsz {
			return i + 1
		}
	}
	return len(ts)
}

// addColumn adds col[i] (squared, for a Σx² component) to sum j of
// *seg[i].
func addColumn(seg []*Tuple, j int, col []float64, square bool) {
	seg = seg[:len(col)]
	if square {
		for i, v := range col {
			seg[i].sums[j].Add(v * v)
		}
		return
	}
	for i, v := range col {
		seg[i].sums[j].Add(v)
	}
}

// storeColumn stores col[i] (squared, for a Σx² component) in the slot
// at[i] of *seg[i]'s buffer that starts at off.
func storeColumn(seg []*Tuple, at []int, off int, col []float64, square bool) {
	seg, at = seg[:len(col)], at[:len(col)]
	if square {
		for i, v := range col {
			seg[i].buf[off+at[i]] = v * v
		}
		return
	}
	for i, v := range col {
		seg[i].buf[off+at[i]] = v
	}
}

// flush sums the buffered values with the vectorised kernel.
func (t *Tuple) flush() {
	if t.fill == 0 {
		return
	}
	for j := range t.sums {
		t.sums[j].AddSliceVec(t.buf[j*t.bsz : j*t.bsz+t.fill])
	}
	t.fill = 0
}

// AppendBinary flushes t and appends its canonical encoding (Width
// bytes) to dst; with enough capacity it does not allocate. Two tuples
// that absorbed the same multiset of rows encode identically, buffered
// or not.
func (p *TuplePlan) AppendBinary(dst []byte, t *Tuple) ([]byte, error) {
	t.flush()
	var err error
	for j := range t.sums {
		if dst, err = t.sums[j].AppendBinary(dst); err != nil {
			return dst, err
		}
	}
	if p.count {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t.n))
	}
	for j := range t.exts {
		dst, _ = t.exts[j].AppendBinary(dst)
	}
	return dst, nil
}

// MergeBinary folds an encoded tuple of the same plan into t. The bytes
// cross a trust boundary: a wrong width or a malformed component is an
// ErrBadState, never a panic. A failed merge may leave earlier
// components merged; callers abandon the aggregation on error.
func (p *TuplePlan) MergeBinary(t *Tuple, enc []byte) error {
	if len(enc) != p.width {
		return fmt.Errorf("%w: tuple is %d bytes, plan width %d", ErrBadState, len(enc), p.width)
	}
	for j := range t.sums {
		sz := t.sums[j].EncodedSize()
		if err := t.sums[j].MergeBinary(enc[:sz]); err != nil {
			return fmt.Errorf("%w: sum component %d: %v", ErrBadState, j, err)
		}
		enc = enc[sz:]
	}
	if p.count {
		n := int64(binary.LittleEndian.Uint64(enc))
		if n < 0 || n > math.MaxInt64-t.n {
			return fmt.Errorf("%w: row count %d merged into %d is negative or overflows", ErrBadState, n, t.n)
		}
		t.n += n
		enc = enc[countSize:]
	}
	for j := range t.exts {
		if err := t.exts[j].MergeBinary(enc[:minmaxSize]); err != nil {
			return err
		}
		enc = enc[minmaxSize:]
	}
	return nil
}

// Finalize flushes t and appends one value per spec, in spec order.
func (p *TuplePlan) Finalize(dst []float64, t *Tuple) []float64 {
	t.flush()
	for _, f := range p.fins {
		dst = append(dst, f.value(t))
	}
	return dst
}

func (f finaliser) value(t *Tuple) float64 { return catalog[f.kind].fin(t, f.a, f.b) }

// countSize is the encoded row count: 8 bytes, little-endian.
const countSize = 8

// minmaxState is the extremum component of MIN/MAX. float64 min/max is
// associative and commutative (with NaN absorbing and −0 < +0 ties
// resolved by math.Min/math.Max), so no summation state is needed. NaN
// inputs are canonicalized so the encoding stays a function of the
// multiset.
type minmaxState struct {
	seen  bool
	cur   float64
	isMax bool
}

// canonicalNaN is the single NaN bit pattern allowed in encodings.
var canonicalNaN = math.Float64bits(math.NaN())

func (m *minmaxState) Add(x float64) {
	if math.IsNaN(x) {
		x = math.Float64frombits(canonicalNaN)
	}
	if !m.seen {
		m.seen, m.cur = true, x
		return
	}
	if m.isMax {
		m.cur = math.Max(m.cur, x)
	} else {
		m.cur = math.Min(m.cur, x)
	}
}

// minmaxSize is 1 flag byte plus the 8-byte value bits.
const minmaxSize = 1 + 8

func (m *minmaxState) AppendBinary(dst []byte) ([]byte, error) {
	var b [minmaxSize]byte
	if m.seen {
		b[0] = 1
		binary.LittleEndian.PutUint64(b[1:], math.Float64bits(m.cur))
	}
	return append(dst, b[:]...), nil
}

func (m *minmaxState) decode(data []byte) (seen bool, cur float64, err error) {
	if len(data) != minmaxSize || data[0] > 1 {
		return false, 0, ErrBadState
	}
	bits := binary.LittleEndian.Uint64(data[1:])
	if data[0] == 0 {
		if bits != 0 {
			return false, 0, fmt.Errorf("%w: empty MIN/MAX with nonzero value", ErrBadState)
		}
		return false, 0, nil
	}
	v := math.Float64frombits(bits)
	if math.IsNaN(v) && bits != canonicalNaN {
		return false, 0, fmt.Errorf("%w: non-canonical NaN in MIN/MAX", ErrBadState)
	}
	return true, v, nil
}

func (m *minmaxState) MergeBinary(data []byte) error {
	seen, cur, err := m.decode(data)
	if err != nil {
		return err
	}
	if seen {
		m.Add(cur)
	}
	return nil
}

// Value returns the extremum, or NaN for an empty input (SQL NULL).
func (m *minmaxState) Value() float64 {
	if !m.seen {
		return math.NaN()
	}
	return m.cur
}

func (m *minmaxState) Reset() { m.seen, m.cur = false, 0 }
