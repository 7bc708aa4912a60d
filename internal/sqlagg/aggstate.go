package sqlagg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rsum"
)

// This file is the logical side of the aggregate catalog. The paper's
// footnote 2 observes that every floating-point SQL aggregate becomes
// reproducible once SUM is, because each one is computed from SUMs.
// The catalog says so row by row: an AggKind is one row of catalog,
// naming the physical components the kind reads — Σx, Σx², the shared
// row count n, or a running extremum — and its finaliser over them.
// AggSpec names one aggregate of a query — which kind, how many
// summation levels, which value column — and a query's aggregate list
// is a []AggSpec, the form that crosses API and process boundaries
// (EncodeSpecs / DecodeSpecs). TuplePlan (tuple.go) is the one
// accumulator: it plans a spec list onto its distinct components.

// AggKind identifies an aggregate function in the catalog.
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

// aggDef is one row of the catalog. sums is how many of Σx and Σx² the
// kind reads (in that order), count whether it reads the shared row
// count n, ext whether it reads a running extremum of its column (the
// maximum if isMax). fin finalises the kind from a tuple, with a
// indexing its Σx or extremum and b its Σx², using a fixed sequence of
// floating-point operations.
type aggDef struct {
	name       string
	sums       int
	count      bool
	ext, isMax bool
	fin        func(t *Tuple, a, b int) float64
}

var catalog = [...]aggDef{
	AggSum:   {name: "SUM", sums: 1, fin: func(t *Tuple, a, _ int) float64 { return t.sums[a].Value() }},
	AggCount: {name: "COUNT", count: true, fin: func(t *Tuple, _, _ int) float64 { return float64(t.n) }},
	AggAvg: {name: "AVG", sums: 1, count: true,
		fin: func(t *Tuple, a, _ int) float64 { return avgOf(&t.sums[a], t.n) }},
	AggVarPop: {name: "VAR_POP", sums: 2, count: true,
		fin: func(t *Tuple, a, b int) float64 { return varianceOf(&t.sums[a], &t.sums[b], t.n, 0) }},
	AggVarSamp: {name: "VAR_SAMP", sums: 2, count: true,
		fin: func(t *Tuple, a, b int) float64 { return varianceOf(&t.sums[a], &t.sums[b], t.n, 1) }},
	AggStddevPop: {name: "STDDEV_POP", sums: 2, count: true,
		fin: func(t *Tuple, a, b int) float64 { return math.Sqrt(varianceOf(&t.sums[a], &t.sums[b], t.n, 0)) }},
	AggStddevSamp: {name: "STDDEV_SAMP", sums: 2, count: true,
		fin: func(t *Tuple, a, b int) float64 { return math.Sqrt(varianceOf(&t.sums[a], &t.sums[b], t.n, 1)) }},
	AggMin: {name: "MIN", ext: true, fin: extremumOf},
	AggMax: {name: "MAX", ext: true, isMax: true, fin: extremumOf},
}

func extremumOf(t *Tuple, a, _ int) float64 { return t.exts[a].Value() }

// def returns k's catalog row, or nil for a kind the catalog lacks.
func (k AggKind) def() *aggDef {
	if int(k) < len(catalog) && catalog[k].fin != nil {
		return &catalog[k]
	}
	return nil
}

// String returns the kind's SQL name: SUM, AVG, ….
func (k AggKind) String() string {
	if d := k.def(); d != nil {
		return d.name
	}
	return fmt.Sprintf("AggKind(%d)", byte(k))
}

// KindByName returns the kind whose SQL name is name.
func KindByName(name string) (AggKind, bool) {
	for k := range catalog {
		if d := AggKind(k).def(); d != nil && d.name == name {
			return AggKind(k), true
		}
	}
	return 0, false
}

// AggSpec describes one aggregate column of a multi-aggregate GROUP BY.
type AggSpec struct {
	// Kind selects the aggregate function from the catalog.
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
	// ErrBadSpec reports an invalid aggregate spec or one of a kind
	// the catalog lacks.
	ErrBadSpec = errors.New("sqlagg: invalid aggregate spec")
	// ErrBadState reports a malformed aggregate state encoding.
	ErrBadState = errors.New("sqlagg: malformed aggregate state encoding")
)

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
	if s.Kind.def() == nil {
		return fmt.Errorf("%w: kind %d is not in the catalog", ErrBadSpec, byte(s.Kind))
	}
	if l := s.ResolvedLevels(); l < 1 || l > core.MaxLevels {
		return fmt.Errorf("%w: levels %d out of range [1, %d]", ErrBadSpec, l, core.MaxLevels)
	}
	if s.Col < 0 || s.Col > maxSpecCol {
		return fmt.Errorf("%w: column %d out of range [0, %d]", ErrBadSpec, s.Col, maxSpecCol)
	}
	return nil
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

// stateSize returns the encoded size of one rsum state at levels.
func stateSize(levels int) int {
	st := rsum.NewState64(levels)
	return st.EncodedSize()
}

// TupleSize returns the logical width of one group: the summed widths
// of one-spec plans, as if no two specs shared a component. The
// shuffle ships the physical tuple (TuplePlan.Width), which is never
// wider. It does not allocate: admission control prices every query
// with it, cache hits included.
func TupleSize(specs []AggSpec) (int, error) {
	if err := checkSpecCount(len(specs)); err != nil {
		return 0, err
	}
	total := 0
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return 0, err
		}
		d := sp.Kind.def()
		total += d.sums * stateSize(sp.ResolvedLevels())
		if d.count {
			total += countSize
		}
		if d.ext {
			total += minmaxSize
		}
	}
	return total, nil
}

// AggState is one aggregate of one group, folded a value at a time: a
// one-spec TuplePlan and its unbuffered Tuple, so it finalises and
// encodes to exactly the bits that plan does.
type AggState interface {
	Add(x float64)
	Value() float64
	AppendBinary(dst []byte) ([]byte, error)
	MergeBinary(data []byte) error
	EncodedSize() int
}

// specState is the only AggState; its plan reads column 0.
type specState struct {
	p *TuplePlan
	t Tuple
}

func (s *specState) Add(x float64)                           { s.p.AddRow(&s.t, [][]float64{{x}}, 0) }
func (s *specState) Value() float64                          { return s.p.fins[0].value(&s.t) }
func (s *specState) AppendBinary(dst []byte) ([]byte, error) { return s.p.AppendBinary(dst, &s.t) }
func (s *specState) MergeBinary(data []byte) error           { return s.p.MergeBinary(&s.t, data) }
func (s *specState) EncodedSize() int                        { return s.p.Width() }

// NewStates returns one empty state per spec, in spec order.
func NewStates(specs []AggSpec) ([]AggState, error) {
	if err := checkSpecCount(len(specs)); err != nil {
		return nil, err
	}
	states := make([]AggState, len(specs))
	for i, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		p, err := NewTuplePlan([]AggSpec{{Kind: sp.Kind, Levels: sp.Levels}})
		if err != nil {
			return nil, err
		}
		states[i] = &specState{p: p, t: p.NewTuple(0)}
	}
	return states, nil
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
	specs, n, err := DecodeSpecsPrefix(data)
	if err == nil && len(specs) == 0 {
		return nil, fmt.Errorf("%w: spec count 0", ErrBadSpec)
	}
	if err == nil && n != len(data) {
		return nil, fmt.Errorf("%w: spec list length %d for %d specs", ErrBadSpec, len(data), len(specs))
	}
	return specs, err
}

// DecodeSpecsPrefix parses a spec list from the front of data,
// returning the specs plus the number of bytes the list occupied —
// for callers embedding a spec list inside a larger payload (the
// cluster runtime's job specs do, where an empty list is the
// reduction). Unlike DecodeSpecs it accepts the empty list.
func DecodeSpecsPrefix(data []byte) ([]AggSpec, int, error) {
	if len(data) < 2 {
		return nil, 0, fmt.Errorf("%w: truncated spec list", ErrBadSpec)
	}
	count := int(binary.LittleEndian.Uint16(data))
	if count > maxSpecs {
		return nil, 0, fmt.Errorf("%w: spec count %d", ErrBadSpec, count)
	}
	n := 2 + count*specWireSize
	if len(data) < n {
		return nil, 0, fmt.Errorf("%w: spec list carries %d of %d bytes for %d specs", ErrBadSpec, len(data), n, count)
	}
	specs := make([]AggSpec, count)
	for i := range specs {
		rec := data[2+i*specWireSize:]
		if rec[1] == 0 {
			// The encoder always writes resolved levels; a 0 byte is
			// non-canonical and would break digest equality.
			return nil, 0, fmt.Errorf("%w: unresolved level count on the wire", ErrBadSpec)
		}
		specs[i] = AggSpec{
			Kind:   AggKind(rec[0]),
			Levels: int(rec[1]),
			Col:    int(binary.LittleEndian.Uint16(rec[2:])),
		}
		if err := specs[i].Validate(); err != nil {
			return nil, 0, err
		}
	}
	return specs, n, nil
}
