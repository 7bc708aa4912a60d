package sqlagg

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/rsum"
)

// The physical tuple. A GROUP BY's spec list is logical: SUM(x), AVG(x),
// VAR_POP(x) and COUNT(*) are four specs but only three things to
// accumulate — Σx, Σx² and the row count n. TuplePlan maps a spec list
// to its distinct physical components, as the catalog rows name them,
// and to one finaliser per spec, the row's fin over those components.
// It is the init / step / merge / encode / finalize of every aggregate.
// Tuple is one group's components, with the §V-A summation buffers in
// front of its sums when it stands alone. An aggregation table keeps
// its groups' components in columns instead (TupleColumns), folds rows
// into them a batch at a time one component at a time, and hands out a
// flushed group as a Tuple view: the per-key record of a shuffle frame
// and what Finalize reads. Rows that already lie together by key need
// neither: AddRun folds one key's run into a tuple a component at a
// time, given what the kernel's scan would find in each column's run.

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

// TupleBytes returns the memory of one tuple without summation
// buffers: its Tuple header and components. It is what a table's cache
// footprint is planned from, and it overprices a table's group, whose
// components sit in TupleColumns beside an 8-byte count and two 12-byte
// slots instead of behind a header (on 64-bit builds 32 bytes, not 96,
// besides the components); the planner keeps the figure until it is
// refit.
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

// Tuple is one group's physical aggregate state: a tuple of its own
// (NewTuple), or a view of one group of a TupleColumns.
type Tuple struct {
	sums []rsum.State64
	exts []minmaxState
	n    int64 // rows in the sums: a buffered tuple counts its fill when it flushes
	// buf holds the values not yet summed, column-major: sum j's are
	// buf[j*bsz : j*bsz+fill]. Every row appends to every column, so
	// one fill index serves them all.
	buf       []float64
	bsz, fill int
}

// NewTuple returns an empty tuple with bsz-value summation buffers
// (0: none, rows go straight into the sums).
func (p *TuplePlan) NewTuple(bsz int) Tuple {
	t := Tuple{sums: make([]rsum.State64, len(p.sums))}
	p.resetSums(t.sums)
	if len(p.exts) > 0 {
		t.exts = make([]minmaxState, len(p.exts))
		p.resetExts(t.exts)
	}
	if nb := bsz * len(p.sums); nb > 0 {
		t.buf, t.bsz = make([]float64, nb), bsz
	}
	return t
}

// resetSums empties one group's sums.
func (p *TuplePlan) resetSums(sums []rsum.State64) {
	for j, c := range p.sums {
		sums[j].Reset(c.levels)
	}
}

// resetExts empties one group's extrema.
func (p *TuplePlan) resetExts(exts []minmaxState) {
	for j, c := range p.exts {
		exts[j] = minmaxState{isMax: c.isMax}
	}
}

// AddRow folds row `row` of cols into t.
func (p *TuplePlan) AddRow(t *Tuple, cols [][]float64, row int) {
	for j, c := range p.sums {
		v := cols[c.col][row]
		if c.square {
			v *= v
		}
		if t.bsz == 0 {
			t.sums[j].Add(v)
		} else {
			t.buf[j*t.bsz+t.fill] = v
		}
	}
	for j, c := range p.exts {
		t.exts[j].Add(cols[c.col][row])
	}
	if t.bsz == 0 {
		t.n++
	} else if t.fill++; t.fill == t.bsz {
		t.flush()
	}
}

// Reset empties t, dropping anything it had buffered and keeping its
// memory.
func (p *TuplePlan) Reset(t *Tuple) {
	p.resetSums(t.sums)
	p.resetExts(t.exts)
	t.n, t.fill = 0, 0
}

// AddRun folds rows lo, lo+1, …, hi−1 of cols into t, to the state of
// AddRow once per row but a component at a time. ext holds the run's
// extents, one per column, as AppendExtents makes them. Each
// Σx component adds its column's slice of the run with one
// AddSliceExtent, which raises to the extent it is given and scans
// nothing; each Σx² component squares the run into t's summation buffer
// and adds a buffer of squares per AddSliceVec call, which scans them —
// a square's extent cannot be told from its root's (one square at a
// time, for a tuple without buffers). What t had buffered is flushed
// first.
func (p *TuplePlan) AddRun(t *Tuple, cols [][]float64, ext []rsum.Extent, lo, hi int) {
	t.flush()
	for j, c := range p.sums {
		run := cols[c.col][lo:hi]
		switch {
		case !c.square:
			t.sums[j].AddSliceExtent(run, ext[c.col])
		case t.bsz == 0:
			for _, v := range run {
				t.sums[j].Add(v * v)
			}
		default:
			sq := t.buf[:t.bsz]
			for len(run) > 0 {
				n := min(len(run), len(sq))
				for i, v := range run[:n] {
					sq[i] = v * v
				}
				t.sums[j].AddSliceVec(sq[:n])
				run = run[n:]
			}
		}
	}
	for j, c := range p.exts {
		for _, v := range cols[c.col][lo:hi] {
			t.exts[j].Add(v)
		}
	}
	t.n += int64(hi - lo)
}

// AppendExtents appends the extents of rows lo, lo+1, …, hi−1 of cols
// to dst, one per column: the ext AddRun takes for that run.
func AppendExtents(dst []rsum.Extent, cols [][]float64, lo, hi int) []rsum.Extent {
	for _, col := range cols {
		dst = append(dst, rsum.Extent64(col[lo:hi]))
	}
	return dst
}

// flush sums the buffered values with the vectorised kernel.
func (t *Tuple) flush() {
	flushBuffers(t.sums, t.buf, t.bsz, t.fill)
	t.n += int64(t.fill)
	t.fill = 0
}

// flushBuffers adds the first fill values of each bsz-value buffer of
// buf to its sum — buffer j to sums[j] — with the vectorised kernel.
func flushBuffers(sums []rsum.State64, buf []float64, bsz, fill int) {
	if fill == 0 {
		return
	}
	for j := range sums {
		sums[j].AddSliceVec(buf[j*bsz : j*bsz+fill])
	}
}

// TupleColumns is the physical state of an aggregation table's groups
// in columns: §V-A's payload ⟨state | next | a_0 … a_bsz⟩ taken apart,
// as agg's sumTable takes it apart for one sum. Groups are numbered in
// arrival order. With S the plan's sums, group g's are [g·S, (g+1)·S)
// of one column of rsum states, its extrema likewise in a column of
// their own, and its row count is n[g]. The first groups also get a
// summation buffer in one arena: buffer g is [g·Stride(),
// (g+1)·Stride()), sum j's bsz values at j·bsz within it.
//
// The table that owns the columns maps keys to group numbers and keeps
// each buffered group's fill, so a buffered row touches its slot and
// the arena only: the states are cold, read when a buffer fills, at a
// merge and at the drain. A buffered group's count holds its flushed
// rows, its fill the rest. The extrema of a plan with MIN or MAX are
// folded row by row.
type TupleColumns struct {
	plan          *TuplePlan
	bsz, buffered int // buffer length; groups [0, buffered) have one
	sums          []rsum.State64
	exts          []minmaxState
	n             []int64
	arena         []float64
	view          Tuple // what Tuple returns
}

// NewColumns returns the columns of a table that expects about hint
// groups, the first buffered of them with bsz-value summation buffers.
// The columns are sized for hint groups; a group past hint grows them.
func (p *TuplePlan) NewColumns(hint, bsz, buffered int) TupleColumns {
	return TupleColumns{
		plan: p, bsz: bsz, buffered: buffered,
		sums:  make([]rsum.State64, 0, hint*len(p.sums)),
		exts:  make([]minmaxState, 0, hint*len(p.exts)),
		n:     make([]int64, 0, hint),
		arena: make([]float64, 0, min(hint, buffered)*bsz*len(p.sums)),
	}
}

// Len returns the number of groups.
func (c *TupleColumns) Len() int { return len(c.n) }

// Stride returns the arena values of one group's buffer: bsz per sum.
func (c *TupleColumns) Stride() int { return c.bsz * len(c.plan.sums) }

// Clear drops every group, keeping the memory.
func (c *TupleColumns) Clear() {
	c.sums, c.exts, c.n, c.arena = c.sums[:0], c.exts[:0], c.n[:0], c.arena[:0]
}

// Claim appends an empty group, with a buffer if it is among the first
// buffered, and returns its number.
func (c *TupleColumns) Claim() int {
	g := len(c.n)
	c.n = append(c.n, 0)
	ns, ne := len(c.plan.sums), len(c.plan.exts)
	c.sums = extend(c.sums, ns)
	c.plan.resetSums(c.sums[g*ns:])
	c.exts = extend(c.exts, ne)
	c.plan.resetExts(c.exts[g*ne:])
	if g < c.buffered {
		c.arena = extend(c.arena, c.Stride())
	}
	return g
}

// extend returns s with k more elements, of any value.
func extend[T any](s []T, k int) []T { return slices.Grow(s, k)[:len(s)+k] }

// Store folds rows lo, lo+1, … of cols into buffered groups: row
// lo+i's value of sum j into the arena at at[i] + j·bsz, at[i] being
// g·Stride() plus the fill of its group g. Its extrema go straight into
// the group's. The table flushes a buffer that fills before it stores
// again.
func (c *TupleColumns) Store(at []int32, cols [][]float64, lo int) {
	for j, sc := range c.plan.sums {
		store(c.arena[j*c.bsz:], at, cols[sc.col][lo:lo+len(at)], sc.square)
	}
	c.extrema(at, int32(c.Stride()), cols, lo)
}

// store writes col[i] (squared, for a Σx² component) to dst[at[i]].
func store(dst []float64, at []int32, col []float64, square bool) {
	at = at[:len(col)]
	if square {
		for i, v := range col {
			dst[at[i]] = v * v
		}
		return
	}
	for i, v := range col {
		dst[at[i]] = v
	}
}

// Add folds rows lo, lo+1, … of cols into groups without a buffer: row
// lo+i straight into group gs[i]'s components.
func (c *TupleColumns) Add(gs []int32, cols [][]float64, lo int) {
	for _, g := range gs {
		c.n[g]++
	}
	ns := len(c.plan.sums)
	for j, sc := range c.plan.sums {
		add(c.sums[j:], ns, gs, cols[sc.col][lo:lo+len(gs)], sc.square)
	}
	c.extrema(gs, 1, cols, lo)
}

// add adds col[i] (squared, for a Σx² component) to sums[gs[i]·stride].
func add(sums []rsum.State64, stride int, gs []int32, col []float64, square bool) {
	gs = gs[:len(col)]
	if square {
		for i, v := range col {
			sums[int(gs[i])*stride].Add(v * v)
		}
		return
	}
	for i, v := range col {
		sums[int(gs[i])*stride].Add(v)
	}
}

// extrema folds rows lo, lo+1, … of cols into the extrema of their
// groups, row lo+i's being idx[i] / div.
func (c *TupleColumns) extrema(idx []int32, div int32, cols [][]float64, lo int) {
	ne := len(c.plan.exts)
	for j, ec := range c.plan.exts {
		exts := c.exts[j:]
		for i, v := range cols[ec.col][lo : lo+len(idx)] {
			exts[int(idx[i]/div)*ne].Add(v)
		}
	}
}

// Flush sums the first fill values of group g's buffer into its sums
// with the vectorised kernel.
func (c *TupleColumns) Flush(g, fill int) {
	ns, stride := len(c.plan.sums), c.Stride()
	flushBuffers(c.sums[g*ns:(g+1)*ns], c.arena[g*stride:(g+1)*stride], c.bsz, fill)
	c.n[g] += int64(fill)
}

// Tuple returns a view of group g, which must have nothing buffered,
// for the plan's AppendBinary and Finalize. The view is valid until the
// next call of Tuple or MergeBinary, and is read-only: its row count
// is a copy.
func (c *TupleColumns) Tuple(g int) *Tuple {
	ns, ne := len(c.plan.sums), len(c.plan.exts)
	c.view = Tuple{sums: c.sums[g*ns : (g+1)*ns : (g+1)*ns], exts: c.exts[g*ne : (g+1)*ne : (g+1)*ne], n: c.n[g]}
	return &c.view
}

// MergeBinary folds an encoded tuple into group g, which must have
// nothing buffered (TuplePlan.MergeBinary, errors included).
func (c *TupleColumns) MergeBinary(g int, enc []byte) error {
	t := c.Tuple(g)
	err := c.plan.MergeBinary(t, enc)
	c.n[g] = t.n
	return err
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
	t.flush() // so that the count check sees every row
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
