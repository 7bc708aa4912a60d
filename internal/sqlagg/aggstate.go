package sqlagg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rsum"
)

// This file is the logical layer of the aggregate catalog. The paper's
// footnote 2 observes that every floating-point SQL aggregate becomes
// reproducible once SUM is; AggSpec names one such aggregate — which
// function (kind), how many summation levels, which value column — and
// a query's aggregate list is a []AggSpec, the form that crosses API
// and process boundaries (EncodeSpecs / DecodeSpecs).
//
// AggState is the per-spec accumulator: one mergeable, canonically
// serializable state per aggregate.
//
//   - Add/MergeFrom are the in-memory accumulation semantics;
//   - AppendBinary/UnmarshalBinary/MergeBinary are a canonical binary
//     encoding byte-compatible with the in-memory merge semantics (two
//     states representing the same multiset encode identically);
//   - EncodedSize is a pure function of the spec (never of the data).
//
// It is the library API for a single aggregate and the reference the
// differential tests hold the pipeline to. The GROUP BY pipeline itself
// does not keep one AggState per spec: TuplePlan (tuple.go) maps the
// spec list to its distinct physical components — specs that read the
// same sum or count share it — and to one finaliser per spec built from
// the same functions the AggStates finalize with (avgOf, varianceOf,
// minmaxState), so both layers return the same bits. What travels in a
// shuffle frame is the physical tuple; TupleSize, the spec-ordered
// logical width, is an upper bound on it that admission control prices
// with.

// AggState is one partial aggregate for one group: a mergeable,
// canonically serializable accumulator.
type AggState interface {
	// Add folds one input value in.
	Add(x float64)
	// MergeFrom folds another partial of the same spec into this one.
	// Kind or level mismatches are errors, never panics.
	MergeFrom(o AggState) error
	// MergeBinary decodes an encoding of the same spec and merges it in.
	MergeBinary(data []byte) error
	// AppendBinary appends the canonical encoding to dst; with enough
	// capacity it does not allocate (encoding.BinaryAppender).
	AppendBinary(dst []byte) ([]byte, error)
	// UnmarshalBinary replaces the state with a decoded encoding,
	// rejecting malformed bytes with an error (never a panic).
	UnmarshalBinary(data []byte) error
	// EncodedSize returns the exact encoding length — a pure function
	// of the spec, independent of the accumulated data.
	EncodedSize() int
	// Value finalizes the aggregate with a fixed, deterministic
	// sequence of floating-point operations.
	Value() float64
	// Reset empties the state, keeping its configuration.
	Reset()
}

// AggKind identifies an aggregate function in the spec catalog.
type AggKind byte

// The built-in aggregate catalog.
const (
	AggSum AggKind = 1 + iota
	AggCount
	AggAvg
	AggVarPop
	AggVarSamp
	AggStddevPop
	AggStddevSamp
	AggMin
	AggMax
)

// String returns the registered name of the kind ("SUM", "AVG", …).
func (k AggKind) String() string {
	if e, ok := registry[k]; ok {
		return e.name
	}
	return fmt.Sprintf("AggKind(%d)", byte(k))
}

// AggSpec describes one aggregate column of a multi-aggregate GROUP BY.
type AggSpec struct {
	// Kind selects the aggregate function from the registered catalog.
	Kind AggKind
	// Levels is the summation level count for reproducible-sum-backed
	// kinds; 0 means core.DefaultLevels. Kinds without a summation
	// state (COUNT, MIN, MAX) ignore it beyond validation.
	Levels int
	// Col is the index of the value column the aggregate reads.
	Col int
}

// maxSpecCol bounds Col so specs fit the 2-byte wire field.
const maxSpecCol = 1<<16 - 1

// maxSpecs bounds a spec list; hostile spec blobs cannot demand
// unbounded tuple sizes.
const maxSpecs = 256

// Sentinel errors for spec and state validation.
var (
	// ErrBadSpec reports an invalid or unregistered aggregate spec.
	ErrBadSpec = errors.New("sqlagg: invalid aggregate spec")
	// ErrBadState reports a malformed aggregate state encoding.
	ErrBadState = errors.New("sqlagg: malformed aggregate state encoding")
	// ErrMergeMismatch reports a merge between incompatible states.
	ErrMergeMismatch = errors.New("sqlagg: cannot merge incompatible aggregate states")
)

// registry maps kinds to their factories. Register during init only;
// the map is read-only afterwards.
type regEntry struct {
	name    string
	factory func(levels int) AggState
}

var registry = map[AggKind]regEntry{}

// Register adds an aggregate kind to the catalog. The factory receives
// the resolved level count (never 0). Registering a kind twice panics;
// call from init functions only.
func Register(kind AggKind, name string, factory func(levels int) AggState) {
	if kind == 0 {
		panic("sqlagg: cannot register AggKind 0")
	}
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("sqlagg: duplicate registration of %s", name))
	}
	registry[kind] = regEntry{name: name, factory: factory}
}

func init() {
	Register(AggSum, "SUM", func(levels int) AggState { return newSumState(levels) })
	Register(AggCount, "COUNT", func(int) AggState { return new(countState) })
	Register(AggAvg, "AVG", func(levels int) AggState { return &avgState{a: NewAvg(levels)} })
	Register(AggVarPop, "VAR_POP", func(levels int) AggState { return newVarState(levels, AggVarPop) })
	Register(AggVarSamp, "VAR_SAMP", func(levels int) AggState { return newVarState(levels, AggVarSamp) })
	Register(AggStddevPop, "STDDEV_POP", func(levels int) AggState { return newVarState(levels, AggStddevPop) })
	Register(AggStddevSamp, "STDDEV_SAMP", func(levels int) AggState { return newVarState(levels, AggStddevSamp) })
	Register(AggMin, "MIN", func(int) AggState { return &minmaxState{isMax: false} })
	Register(AggMax, "MAX", func(int) AggState { return &minmaxState{isMax: true} })
}

// ResolvedLevels returns the effective level count (Levels, or
// core.DefaultLevels when 0).
func (s AggSpec) ResolvedLevels() int {
	if s.Levels == 0 {
		return core.DefaultLevels
	}
	return s.Levels
}

// Validate checks the spec against the catalog and wire limits.
func (s AggSpec) Validate() error {
	if _, ok := registry[s.Kind]; !ok {
		return fmt.Errorf("%w: unregistered kind %d", ErrBadSpec, byte(s.Kind))
	}
	if l := s.ResolvedLevels(); l < 1 || l > core.MaxLevels {
		return fmt.Errorf("%w: levels %d out of range [1, %d]", ErrBadSpec, l, core.MaxLevels)
	}
	if s.Col < 0 || s.Col > maxSpecCol {
		return fmt.Errorf("%w: column %d out of range [0, %d]", ErrBadSpec, s.Col, maxSpecCol)
	}
	return nil
}

// New returns an empty state for the spec.
func (s AggSpec) New() (AggState, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return registry[s.Kind].factory(s.ResolvedLevels()), nil
}

// StateSize returns the encoded size of the spec's state — the pure
// per-spec component of the wire tuple size.
func (s AggSpec) StateSize() (int, error) {
	st, err := s.New()
	if err != nil {
		return 0, err
	}
	return st.EncodedSize(), nil
}

// NewStates instantiates one empty state per spec, in spec order.
func NewStates(specs []AggSpec) ([]AggState, error) {
	if err := checkSpecCount(len(specs)); err != nil {
		return nil, err
	}
	states := make([]AggState, len(specs))
	for i, sp := range specs {
		st, err := sp.New()
		if err != nil {
			return nil, err
		}
		states[i] = st
	}
	return states, nil
}

// checkSpecCount bounds a spec list: at least one, at most maxSpecs.
func checkSpecCount(n int) error {
	if n == 0 {
		return fmt.Errorf("%w: empty spec list", ErrBadSpec)
	}
	if n > maxSpecs {
		return fmt.Errorf("%w: %d specs exceeds limit %d", ErrBadSpec, n, maxSpecs)
	}
	return nil
}

// TupleSize returns the total encoded size of one spec-ordered tuple of
// per-spec states: the logical width of a group. The shuffle ships the
// physical tuple (TuplePlan.Width), which is never wider.
func TupleSize(specs []AggSpec) (int, error) {
	states, err := NewStates(specs)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, st := range states {
		total += st.EncodedSize()
	}
	return total, nil
}

// Spec list wire format: [2B count LE] then per spec
// [1B kind][1B levels][2B col LE]. Levels are encoded resolved, so a
// spec written with Levels 0 and one written with the explicit default
// produce identical bytes (and identical handshake digests).
const specWireSize = 4

// EncodeSpecs appends the canonical wire form of the spec list to dst.
func EncodeSpecs(dst []byte, specs []AggSpec) ([]byte, error) {
	if len(specs) > maxSpecs {
		return dst, fmt.Errorf("%w: %d specs exceeds limit %d", ErrBadSpec, len(specs), maxSpecs)
	}
	var b [specWireSize]byte
	binary.LittleEndian.PutUint16(b[:2], uint16(len(specs)))
	dst = append(dst, b[0], b[1])
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return dst, err
		}
		b[0] = byte(sp.Kind)
		b[1] = byte(sp.ResolvedLevels())
		binary.LittleEndian.PutUint16(b[2:], uint16(sp.Col))
		dst = append(dst, b[:]...)
	}
	return dst, nil
}

// DecodeSpecs parses a spec list encoded by EncodeSpecs. The blob must
// be exactly consumed; malformed bytes are errors, never panics.
func DecodeSpecs(data []byte) ([]AggSpec, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("%w: truncated spec list", ErrBadSpec)
	}
	count := int(binary.LittleEndian.Uint16(data))
	if count == 0 || count > maxSpecs {
		return nil, fmt.Errorf("%w: spec count %d", ErrBadSpec, count)
	}
	if len(data) != 2+count*specWireSize {
		return nil, fmt.Errorf("%w: spec list length %d for %d specs", ErrBadSpec, len(data), count)
	}
	specs := make([]AggSpec, count)
	for i := range specs {
		rec := data[2+i*specWireSize:]
		if rec[1] == 0 {
			// The encoder always writes resolved levels; a 0 byte is
			// non-canonical and would break digest equality.
			return nil, fmt.Errorf("%w: unresolved level count on the wire", ErrBadSpec)
		}
		specs[i] = AggSpec{
			Kind:   AggKind(rec[0]),
			Levels: int(rec[1]),
			Col:    int(binary.LittleEndian.Uint16(rec[2:])),
		}
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// DecodeSpecsPrefix parses a spec list from the front of data,
// returning the specs plus the number of bytes the list occupied —
// for callers embedding a spec list inside a larger payload (the
// cluster runtime's job specs do).
func DecodeSpecsPrefix(data []byte) ([]AggSpec, int, error) {
	if len(data) < 2 {
		return nil, 0, fmt.Errorf("%w: truncated spec list", ErrBadSpec)
	}
	count := int(binary.LittleEndian.Uint16(data))
	if count == 0 || count > maxSpecs {
		return nil, 0, fmt.Errorf("%w: spec count %d", ErrBadSpec, count)
	}
	n := 2 + count*specWireSize
	if len(data) < n {
		return nil, 0, fmt.Errorf("%w: spec list carries %d of %d bytes for %d specs", ErrBadSpec, len(data), n, count)
	}
	specs, err := DecodeSpecs(data[:n])
	return specs, n, err
}

// ---------------------------------------------------------------------
// Canonical binary encodings for the composite sqlagg aggregates. The
// encodings embed rsum state encodings (self-describing via their
// header) followed by the exact row count, so they are byte-compatible
// with the in-memory merge semantics: marshal → merge bytes equals
// merge in memory → marshal.

const countSize = 8

func appendCount(dst []byte, n int64) []byte {
	var b [countSize]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	return append(dst, b[:]...)
}

func decodeCount(data []byte) (int64, error) {
	if len(data) != countSize {
		return 0, ErrBadState
	}
	n := int64(binary.LittleEndian.Uint64(data))
	if n < 0 {
		return 0, fmt.Errorf("%w: negative row count", ErrBadState)
	}
	return n, nil
}

// EncodedSize returns the exact byte length of the Avg encoding:
// the summation state followed by the 8-byte row count.
func (a *Avg) EncodedSize() int { return a.sum.State().EncodedSize() + countSize }

// AppendBinary appends the canonical Avg encoding to dst; with enough
// capacity it does not allocate.
func (a *Avg) AppendBinary(dst []byte) ([]byte, error) {
	dst, err := a.sum.State().AppendBinary(dst)
	if err != nil {
		return dst, err
	}
	return appendCount(dst, a.n), nil
}

// UnmarshalBinary decodes an Avg encoding, rejecting malformed bytes.
func (a *Avg) UnmarshalBinary(data []byte) error {
	stLen, err := rsum.EncodedLen64(data)
	if err != nil {
		return err
	}
	if len(data) != stLen+countSize {
		return ErrBadState
	}
	var t Avg
	if err := t.sum.State().UnmarshalBinary(data[:stLen]); err != nil {
		return err
	}
	n, err := decodeCount(data[stLen:])
	if err != nil {
		return err
	}
	t.n = n
	*a = t
	return nil
}

// MergeBinary decodes an Avg encoding and merges it into a, reporting
// level mismatches as errors (the encoding crosses a trust boundary).
func (a *Avg) MergeBinary(data []byte) error {
	var o Avg
	if err := o.UnmarshalBinary(data); err != nil {
		return err
	}
	if o.sum.Levels() != a.sum.Levels() {
		return fmt.Errorf("%w: AVG levels %d vs %d", ErrMergeMismatch, o.sum.Levels(), a.sum.Levels())
	}
	a.MergeFrom(&o)
	return nil
}

// EncodedSize returns the exact byte length of the Variance encoding:
// the Σx and Σx² states followed by the 8-byte row count.
func (v *Variance) EncodedSize() int {
	return v.sum.State().EncodedSize() + v.sumSq.State().EncodedSize() + countSize
}

// AppendBinary appends the canonical Variance encoding to dst; with
// enough capacity it does not allocate.
func (v *Variance) AppendBinary(dst []byte) ([]byte, error) {
	dst, err := v.sum.State().AppendBinary(dst)
	if err != nil {
		return dst, err
	}
	dst, err = v.sumSq.State().AppendBinary(dst)
	if err != nil {
		return dst, err
	}
	return appendCount(dst, v.n), nil
}

// UnmarshalBinary decodes a Variance encoding, rejecting malformed
// bytes (including Σx/Σx² states with mismatched level counts).
func (v *Variance) UnmarshalBinary(data []byte) error {
	sumLen, err := rsum.EncodedLen64(data)
	if err != nil {
		return err
	}
	if len(data) < sumLen {
		return ErrBadState
	}
	sqLen, err := rsum.EncodedLen64(data[sumLen:])
	if err != nil {
		return err
	}
	if sqLen != sumLen || len(data) != sumLen+sqLen+countSize {
		return ErrBadState
	}
	var t Variance
	if err := t.sum.State().UnmarshalBinary(data[:sumLen]); err != nil {
		return err
	}
	if err := t.sumSq.State().UnmarshalBinary(data[sumLen : sumLen+sqLen]); err != nil {
		return err
	}
	n, err := decodeCount(data[sumLen+sqLen:])
	if err != nil {
		return err
	}
	t.n = n
	*v = t
	return nil
}

// MergeBinary decodes a Variance encoding and merges it into v,
// reporting level mismatches as errors.
func (v *Variance) MergeBinary(data []byte) error {
	var o Variance
	if err := o.UnmarshalBinary(data); err != nil {
		return err
	}
	if o.sum.Levels() != v.sum.Levels() {
		return fmt.Errorf("%w: VARIANCE levels %d vs %d", ErrMergeMismatch, o.sum.Levels(), v.sum.Levels())
	}
	v.MergeFrom(&o)
	return nil
}

// ---------------------------------------------------------------------
// AggState implementations.

// sumState is the SUM aggregate: a bare reproducible summation state.
// Its wire form is exactly the rsum.State64 canonical encoding, so a
// single-SUM spec list reproduces the PR 3 shuffle pair bytes.
type sumState struct {
	st rsum.State64
}

func newSumState(levels int) *sumState {
	return &sumState{st: rsum.NewState64(levels)}
}

func (s *sumState) Add(x float64) { s.st.Add(x) }

func (s *sumState) MergeFrom(o AggState) error {
	t, ok := o.(*sumState)
	if !ok {
		return fmt.Errorf("%w: SUM vs %T", ErrMergeMismatch, o)
	}
	if t.st.Levels() != s.st.Levels() {
		return fmt.Errorf("%w: SUM levels %d vs %d", ErrMergeMismatch, t.st.Levels(), s.st.Levels())
	}
	s.st.Merge(&t.st)
	return nil
}

func (s *sumState) MergeBinary(data []byte) error           { return s.st.MergeBinary(data) }
func (s *sumState) AppendBinary(dst []byte) ([]byte, error) { return s.st.AppendBinary(dst) }
func (s *sumState) UnmarshalBinary(data []byte) error       { return s.st.UnmarshalBinary(data) }
func (s *sumState) EncodedSize() int                        { return s.st.EncodedSize() }
func (s *sumState) Value() float64                          { return s.st.Value() }
func (s *sumState) Reset()                                  { s.st.Reset(s.st.Levels()) }

// countState is the COUNT aggregate: an exact row counter. Counts stay
// below 2⁵³, so Value() is exact as a float64.
type countState struct {
	n int64
}

func (c *countState) Add(float64) { c.n++ }

func (c *countState) MergeFrom(o AggState) error {
	t, ok := o.(*countState)
	if !ok {
		return fmt.Errorf("%w: COUNT vs %T", ErrMergeMismatch, o)
	}
	c.n += t.n
	return nil
}

func (c *countState) MergeBinary(data []byte) error {
	n, err := decodeCount(data)
	if err != nil {
		return err
	}
	c.n += n
	return nil
}

func (c *countState) AppendBinary(dst []byte) ([]byte, error) {
	return appendCount(dst, c.n), nil
}

func (c *countState) UnmarshalBinary(data []byte) error {
	n, err := decodeCount(data)
	if err != nil {
		return err
	}
	c.n = n
	return nil
}

func (c *countState) EncodedSize() int { return countSize }
func (c *countState) Value() float64   { return float64(c.n) }
func (c *countState) Reset()           { c.n = 0 }

// avgState adapts Avg to the AggState interface.
type avgState struct {
	a Avg
}

func (s *avgState) Add(x float64) { s.a.Add(x) }

func (s *avgState) MergeFrom(o AggState) error {
	t, ok := o.(*avgState)
	if !ok {
		return fmt.Errorf("%w: AVG vs %T", ErrMergeMismatch, o)
	}
	if t.a.sum.Levels() != s.a.sum.Levels() {
		return fmt.Errorf("%w: AVG levels %d vs %d", ErrMergeMismatch, t.a.sum.Levels(), s.a.sum.Levels())
	}
	s.a.MergeFrom(&t.a)
	return nil
}

func (s *avgState) MergeBinary(data []byte) error           { return s.a.MergeBinary(data) }
func (s *avgState) AppendBinary(dst []byte) ([]byte, error) { return s.a.AppendBinary(dst) }
func (s *avgState) UnmarshalBinary(data []byte) error       { return s.a.UnmarshalBinary(data) }
func (s *avgState) EncodedSize() int                        { return s.a.EncodedSize() }
func (s *avgState) Value() float64                          { return s.a.Value() }

func (s *avgState) Reset() { s.a = NewAvg(s.a.sum.Levels()) }

// varState adapts Variance to the AggState interface; kind selects the
// finalizer (VAR_POP/VAR_SAMP/STDDEV_POP/STDDEV_SAMP).
type varState struct {
	v    Variance
	kind AggKind
}

func newVarState(levels int, kind AggKind) *varState {
	return &varState{v: NewVariance(levels), kind: kind}
}

func (s *varState) Add(x float64) { s.v.Add(x) }

func (s *varState) MergeFrom(o AggState) error {
	t, ok := o.(*varState)
	if !ok || t.kind != s.kind {
		return fmt.Errorf("%w: %s vs %T", ErrMergeMismatch, s.kind, o)
	}
	if t.v.sum.Levels() != s.v.sum.Levels() {
		return fmt.Errorf("%w: %s levels %d vs %d", ErrMergeMismatch, s.kind, t.v.sum.Levels(), s.v.sum.Levels())
	}
	s.v.MergeFrom(&t.v)
	return nil
}

func (s *varState) MergeBinary(data []byte) error           { return s.v.MergeBinary(data) }
func (s *varState) AppendBinary(dst []byte) ([]byte, error) { return s.v.AppendBinary(dst) }
func (s *varState) UnmarshalBinary(data []byte) error       { return s.v.UnmarshalBinary(data) }
func (s *varState) EncodedSize() int                        { return s.v.EncodedSize() }

func (s *varState) Value() float64 {
	switch s.kind {
	case AggVarPop:
		return s.v.VarPop()
	case AggVarSamp:
		return s.v.VarSamp()
	case AggStddevPop:
		return s.v.StddevPop()
	default:
		return s.v.StddevSamp()
	}
}

func (s *varState) Reset() { s.v = NewVariance(s.v.sum.Levels()) }

// minmaxState is the MIN/MAX aggregate. float64 min/max is associative
// and commutative (with NaN absorbing and −0 < +0 ties resolved by
// math.Min/math.Max), so no summation state is needed. NaN inputs are
// canonicalized so the encoding stays a function of the multiset.
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

func (m *minmaxState) MergeFrom(o AggState) error {
	t, ok := o.(*minmaxState)
	if !ok || t.isMax != m.isMax {
		return fmt.Errorf("%w: MIN/MAX vs %T", ErrMergeMismatch, o)
	}
	if t.seen {
		m.Add(t.cur)
	}
	return nil
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

func (m *minmaxState) UnmarshalBinary(data []byte) error {
	seen, cur, err := m.decode(data)
	if err != nil {
		return err
	}
	m.seen, m.cur = seen, cur
	return nil
}

func (m *minmaxState) EncodedSize() int { return minmaxSize }

// Value returns the extremum, or NaN for an empty input (SQL NULL).
func (m *minmaxState) Value() float64 {
	if !m.seen {
		return math.NaN()
	}
	return m.cur
}

func (m *minmaxState) Reset() { m.seen, m.cur = false, 0 }
