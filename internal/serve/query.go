package serve

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sqlagg"
)

// QueryKind selects a query shape.
type QueryKind byte

// The query catalog.
const (
	// QueryGroupBy: GROUP BY key with the spec list's aggregates; the
	// result is one TupleGroup per distinct key, sorted by key.
	QueryGroupBy QueryKind = 1
	// QueryWindowTotals: the window aggregate SUM(col) OVER (PARTITION
	// BY key) — one total per input row, in row order.
	QueryWindowTotals QueryKind = 2
)

// Query is one serving-layer query. The zero value is invalid;
// construct with GroupBy or WindowTotals, or fill the fields directly.
type Query struct {
	Kind QueryKind
	// Specs is the aggregate list of a QueryGroupBy.
	Specs []sqlagg.AggSpec
	// Col and Levels configure a QueryWindowTotals: the value column to
	// total and the summation level count (0 = DefaultLevels).
	Col    int
	Levels int
}

// GroupBy returns a GROUP BY query over the given aggregate specs.
func GroupBy(specs ...sqlagg.AggSpec) Query {
	return Query{Kind: QueryGroupBy, Specs: specs}
}

// WindowTotals returns a per-row window-total query over column col.
func WindowTotals(col, levels int) Query {
	return Query{Kind: QueryWindowTotals, Col: col, Levels: levels}
}

// validate checks the query against the catalog and a dataset's column
// count. All failures are ErrBadQuery.
func (q Query) validate(ncols int) error {
	switch q.Kind {
	case QueryGroupBy:
		if len(q.Specs) == 0 {
			return fmt.Errorf("%w: GROUP BY with no aggregates", ErrBadQuery)
		}
		for _, sp := range q.Specs {
			if err := sp.Validate(); err != nil {
				return fmt.Errorf("%w: %v", ErrBadQuery, err)
			}
			if sp.Col >= ncols {
				return fmt.Errorf("%w: %s reads column %d of a %d-column dataset",
					ErrBadQuery, sp.Kind, sp.Col, ncols)
			}
		}
		return nil
	case QueryWindowTotals:
		if q.Col < 0 || q.Col >= ncols {
			return fmt.Errorf("%w: window totals over column %d of a %d-column dataset",
				ErrBadQuery, q.Col, ncols)
		}
		if l := resolvedLevels(q.Levels); l < 1 || l > core.MaxLevels {
			return fmt.Errorf("%w: window levels %d out of range [1, %d]", ErrBadQuery, l, core.MaxLevels)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown query kind %d", ErrBadQuery, byte(q.Kind))
	}
}

func resolvedLevels(l int) int {
	if l == 0 {
		return core.DefaultLevels
	}
	return l
}

// Encode returns the query's canonical encoding — the cache key. Two
// queries that mean the same thing encode identically: level 0 encodes as the resolved default, so
// Levels 0 and an explicit DefaultLevels share one cache entry. The
// layout is [1B kind] followed by the kind's body: the sqlagg spec
// wire form for GROUP BY, [1B levels][2B col LE] for window totals.
func (q Query) Encode() ([]byte, error) {
	switch q.Kind {
	case QueryGroupBy:
		if len(q.Specs) == 0 {
			return nil, fmt.Errorf("%w: GROUP BY with no aggregates", ErrBadQuery)
		}
		dst := make([]byte, 1, 1+2+4*len(q.Specs))
		dst[0] = byte(QueryGroupBy)
		dst, err := sqlagg.EncodeSpecs(dst, q.Specs)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		return dst, nil
	case QueryWindowTotals:
		l := resolvedLevels(q.Levels)
		if l < 1 || l > core.MaxLevels {
			return nil, fmt.Errorf("%w: window levels %d out of range [1, %d]", ErrBadQuery, l, core.MaxLevels)
		}
		if q.Col < 0 || q.Col > math.MaxUint16 {
			return nil, fmt.Errorf("%w: window column %d out of wire range", ErrBadQuery, q.Col)
		}
		var b [4]byte
		b[0] = byte(QueryWindowTotals)
		b[1] = byte(l)
		binary.LittleEndian.PutUint16(b[2:], uint16(q.Col))
		return b[:], nil
	default:
		return nil, fmt.Errorf("%w: unknown query kind %d", ErrBadQuery, byte(q.Kind))
	}
}

// Result is one answered query. Bytes is the canonical result
// encoding — a pure function of (query, data version), identical for
// every backend and execution — and must be treated as read-only (a
// cache hit shares the cached buffer). Decode with Groups or Totals.
type Result struct {
	// Query is the answered query.
	Query Query
	// Version is the dataset digest the result was computed over.
	Version uint64
	// Bytes is the canonical result encoding: dist.EncodeTupleGroups
	// form for a GROUP BY, 8 bytes of little-endian float64 bits per
	// row for window totals.
	Bytes []byte
	// CacheHit reports whether Bytes came from the result cache.
	CacheHit bool
	// TraceID identifies this query's recorded trace (Server.Trace /
	// reproserve /trace/<id>); zero when tracing is disabled.
	TraceID uint64
}

// Groups decodes a GROUP BY result into key-sorted tuple rows.
func (r *Result) Groups() ([]dist.TupleGroup, error) {
	if r.Query.Kind != QueryGroupBy {
		return nil, fmt.Errorf("%w: Groups on a %d-kind result", ErrBadQuery, byte(r.Query.Kind))
	}
	gs, err := dist.DecodeTupleGroups(r.Bytes, len(r.Query.Specs))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return gs, nil
}

// Totals decodes a window-totals result into the per-row totals.
func (r *Result) Totals() ([]float64, error) {
	if r.Query.Kind != QueryWindowTotals {
		return nil, fmt.Errorf("%w: Totals on a %d-kind result", ErrBadQuery, byte(r.Query.Kind))
	}
	if len(r.Bytes)%8 != 0 {
		return nil, fmt.Errorf("%w: totals encoding length %d", ErrBadQuery, len(r.Bytes))
	}
	out := make([]float64, len(r.Bytes)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.Bytes[8*i:]))
	}
	return out, nil
}

// encodeTotals is the canonical window-totals encoding: the exact bit
// pattern of each total, little-endian, in row order.
func encodeTotals(totals []float64) []byte {
	out := make([]byte, 8*len(totals))
	for i, v := range totals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}
