// Package serve is the reproducible SQL serving layer: a long-lived
// query server over shared resident data. Clients submit GROUP BY and
// window aggregate queries drawn from the sqlagg spec catalog; the
// server plans them onto the local partitioned engine or the
// distributed tuple plane and returns canonical result encodings.
//
// Reproducibility is what makes a serving layer out of these parts.
// Because every aggregate is bit-reproducible — the same multiset of
// rows yields the same bits for every execution order, worker count,
// partitioning, and backend — a query's canonical result encoding is a
// pure function of (query, data version). That purity buys three
// things the server leans on:
//
//   - a result cache that is *correct by construction*: a hit returns
//     exactly the bytes a recomputation would produce, so caching can
//     never be observed (except as latency);
//   - backend transparency: the local engine and the distributed
//     cluster answer with identical bytes, so placement is a pure
//     scheduling decision;
//   - memory admission that can reason before running: the partitioned
//     layout bounds the distinct-key count of any GROUP BY up front
//     (the summed partition.Part.Bound), and the spec catalog prices
//     each group's state tuple (sqlagg.TupleSize), so a query's working
//     memory is estimated — and over-budget queries rejected with a
//     typed error — before the first row is touched.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"

	"repro/internal/agg"
	"repro/internal/groupby"
	"repro/internal/partition"
	"repro/internal/sqlagg"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Typed errors of the serving layer, matchable with errors.Is on the
// (possibly wrapped) errors Server.Do returns.
var (
	// ErrBadQuery: the query references an unknown kind, an unregistered
	// aggregate, an out-of-range column, or an invalid level count.
	ErrBadQuery = errors.New("serve: invalid query")
	// ErrOverBudget: the query's estimated working memory exceeds the
	// server's per-query budget. Reported before execution starts.
	ErrOverBudget = errors.New("serve: estimated query memory exceeds the per-query budget")
	// ErrOverloaded: all execution slots are busy and the wait queue is
	// full. The query was never enqueued.
	ErrOverloaded = errors.New("serve: server overloaded, wait queue full")
	// ErrQueueTimeout: the query waited in the admission queue for the
	// full queue timeout without an execution slot freeing up.
	ErrQueueTimeout = errors.New("serve: timed out waiting for an execution slot")
	// ErrServerClosed: the server has been closed.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrDataset: the dataset's shape is invalid (mismatched column
	// lengths, no rows, no columns, bad options).
	ErrDataset = errors.New("serve: invalid dataset")
)

// DatasetOptions configures resident-data loading.
type DatasetOptions struct {
	// Shards is the cluster size the data is pre-sharded for, serving
	// the distributed backend (default 4).
	Shards int
	// Workers parallelizes the load-time partitioning pass (default
	// GOMAXPROCS). The physical row order inside a partition depends on
	// it, but query results do not: the aggregates are order-independent.
	Workers int
}

func (o DatasetOptions) withDefaults() DatasetOptions {
	if o.Shards == 0 {
		o.Shards = 4
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Dataset is an immutable resident table: uint32 group keys plus
// float64 value columns, held in three layouts at once — original row
// order (window queries), radix-partitioned into ascending key ranges
// (the local GROUP BY engine), and round-robin sharded (the distributed
// backend). All
// layouts hold the same multiset of rows, so every backend answers
// with the same bits. A Dataset is safe for concurrent use after
// construction; it is never mutated.
type Dataset struct {
	keys []uint32
	cols [][]float64

	// Local-engine layout: rows partitioned into ascending key ranges,
	// every value column beside the keys. sumBound — Σ Part.Bound — is a
	// precomputed upper bound on the number of groups any GROUP BY over
	// this data can produce; memory admission prices queries with it.
	// maxBound, the largest part's, plans the summation buffers.
	parts              []partition.Part[float64]
	maxBound, sumBound int

	// Distributed-backend layout.
	shardKeys [][]uint32
	shardCols [][][]float64

	// version is an FNV-64a digest of the resident rows. It keys the
	// result cache: results are a pure function of (query, version).
	version uint64
}

// NewDataset loads keys and value columns as resident serving data.
// All columns must have exactly len(keys) rows; at least one row and
// one column are required. The input slices are retained (not copied)
// in row order and must not be mutated afterwards.
func NewDataset(keys []uint32, cols [][]float64, opts DatasetOptions) (*Dataset, error) {
	o := opts.withDefaults()
	if len(keys) == 0 {
		return nil, fmt.Errorf("%w: no rows", ErrDataset)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: no value columns", ErrDataset)
	}
	for c := range cols {
		if len(cols[c]) != len(keys) {
			return nil, fmt.Errorf("%w: column %d has %d rows, keys have %d",
				ErrDataset, c, len(cols[c]), len(keys))
		}
	}
	if o.Shards < 1 {
		return nil, fmt.Errorf("%w: shard count %d", ErrDataset, o.Shards)
	}

	// Local layout: every value column is partitioned beside the keys
	// once, at load time — queries only ever stream sequentially after
	// this. Distributed layout: round-robin deal.
	d := &Dataset{keys: keys, cols: cols}
	d.parts = partition.Recursive(keys, cols, 1, agg.DefaultFanout, o.Workers)
	for _, pt := range d.parts {
		d.maxBound, d.sumBound = max(d.maxBound, pt.Bound()), d.sumBound+pt.Bound()
	}
	d.shardKeys, d.shardCols = groupby.Deal(keys, cols, o.Shards)
	d.version = digestRows(keys, cols)
	return d, nil
}

// SyntheticDataset loads a workload-generated dataset: n rows with
// keys uniform over [0, ngroups) and ncols value columns drawn from
// dist, all derived deterministically from seed.
func SyntheticDataset(seed uint64, n int, ngroups uint32, ncols int, dist workload.ValueDist, opts DatasetOptions) (*Dataset, error) {
	if n <= 0 || ncols <= 0 || ngroups == 0 {
		return nil, fmt.Errorf("%w: n=%d ncols=%d ngroups=%d", ErrDataset, n, ncols, ngroups)
	}
	keys := workload.Keys(seed, n, ngroups)
	cols := make([][]float64, ncols)
	for c := range cols {
		cols[c] = workload.Values64(seed+1+uint64(c), n, dist)
	}
	return NewDataset(keys, cols, opts)
}

// Q1Dataset loads TPC-H lineitem at the given scale factor and
// evaluates Q1's scan side (shipdate filter, projections, group ids)
// into resident serving data with the Q1 column layout — Q1Specs
// queries against it reproduce the eight Q1 aggregates.
func Q1Dataset(sf float64, seed uint64, opts DatasetOptions) (*Dataset, error) {
	keys, cols, err := tpch.Q1Input(tpch.GenLineitem(sf, seed))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDataset, err)
	}
	return NewDataset(keys, cols, opts)
}

// Rows returns the resident row count.
func (d *Dataset) Rows() int { return len(d.keys) }

// Cols returns the value-column count.
func (d *Dataset) Cols() int { return len(d.cols) }

// Version returns the dataset's content digest. Results are a pure
// function of (query, Version); the result cache keys on both.
func (d *Dataset) Version() uint64 { return d.version }

// DistinctBound returns the precomputed upper bound on the number of
// distinct keys — the group count no GROUP BY over this data can
// exceed, and the factor memory admission multiplies by the per-group
// tuple price.
func (d *Dataset) DistinctBound() int { return d.sumBound }

// EstimateBytes returns the estimated peak working memory of q on this
// dataset: the admission-control price a server compares against its
// per-query budget. For a GROUP BY the estimate is
//
//	DistinctBound × (TupleSize(specs) + 2 × rowWidth)
//
// — one encoded state tuple per possible group, plus the finalized
// in-memory rows and their canonical result encoding (rowWidth = 4-byte
// key + 8 bytes per spec). DistinctBound never undercounts distinct
// keys, so the estimate upper-bounds the group-dependent allocations:
// TupleSize is the logical width, one state per spec, and the physical
// tuple the engine keeps per group (sqlagg.TuplePlan) shares states
// between specs, so it is never wider. The summation buffers in front
// of the tuples are not group-dependent: they are planned so that one
// partition's fill Eq. 4's budget (agg.CacheBytesPerThread, 1 MiB), and
// a worker's table has under four slots per planned group, so each
// worker holds a few MiB of them at most, however many groups the query
// has — a per-worker constant the per-query budget does not price.
func (d *Dataset) EstimateBytes(q Query) (int, error) {
	if err := q.validate(d.Cols()); err != nil {
		return 0, err
	}
	switch q.Kind {
	case QueryGroupBy:
		ts, err := sqlagg.TupleSize(q.Specs)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		rowWidth := 4 + 8*len(q.Specs)
		return d.DistinctBound() * (ts + 2*rowWidth), nil
	case QueryWindowTotals:
		// Per-key summation states plus the per-row totals column and
		// its 8-byte-per-row canonical encoding.
		st := sqlagg.AggSpec{Kind: sqlagg.AggSum, Levels: q.Levels}
		sz, err := st.StateSize()
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		return d.DistinctBound()*sz + 16*d.Rows(), nil
	default:
		return 0, fmt.Errorf("%w: unknown query kind %d", ErrBadQuery, byte(q.Kind))
	}
}

// digestRows computes the FNV-64a content digest over the keys and the
// exact bit patterns of every value column. Bit patterns, not values:
// two datasets that differ only in a NaN payload or a signed zero are
// different data and must not share cache entries.
func digestRows(keys []uint32, cols [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, k := range keys {
		b[0], b[1], b[2], b[3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
		h.Write(b[:4])
	}
	for _, col := range cols {
		for _, v := range col {
			bits := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
