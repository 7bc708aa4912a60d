// Package serve is the reproducible SQL serving layer: a long-lived
// query server over shared resident data. Clients submit GROUP BY and
// window aggregate queries drawn from the sqlagg spec catalog; the
// server plans them onto the local engine, which folds the key runs of
// a load-time copy of the rows partitioned and sorted by key, or the
// distributed tuple plane, and returns canonical result encodings.
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
//   - memory admission that can reason before running: the load counts
//     the distinct keys, the group count of any GROUP BY, up front (the
//     runs of the sorted partitions), and the spec catalog prices each
//     group's state tuple (sqlagg.TupleSize), so a query's working
//     memory is estimated — and over-budget queries rejected with a
//     typed error — before the first row is touched.
package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/agg"
	"repro/internal/partition"
	"repro/internal/rsum"
	"repro/internal/sqlagg"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// Typed errors of the serving layer, matchable with errors.Is on the
// (possibly wrapped) errors Server.Do returns.
var (
	// ErrBadQuery: the query references an unknown kind, an aggregate
	// not in the catalog, an out-of-range column, or an invalid level
	// count.
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
	// Shards is the node count of the in-process distributed backend,
	// which runs a query over that many contiguous views of the rows
	// (default 4). A server backed by a Cluster uses the cluster's size.
	Shards int
	// Workers parallelizes the load-time partitioning pass and sort
	// (default GOMAXPROCS). The physical order of a key's rows depends on
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
// float64 value columns, held in two layouts at once — original row
// order (window queries, and the distributed backends, which take
// contiguous views of it, one per node) and key-clustered: radix-
// partitioned into ascending key ranges and sorted by key within each
// partition, so that every key's rows are one run (the local GROUP BY
// engine), with each run's extent per column recorded beside it (what
// the summation kernel's scan would find there, so a query never
// scans a run for its Σx). Both layouts hold the same multiset of rows,
// so every backend answers with the same bits. A Dataset is safe for
// concurrent use after construction; it is never mutated.
type Dataset struct {
	keys   []uint32
	cols   [][]float64
	shards int // DatasetOptions.Shards

	// Local-engine layout: the key-clustered partitions, every value
	// column beside the keys and every run's extents, and groups, their
	// runs in all: the distinct keys, the number of groups any GROUP BY
	// over this data produces, which memory admission prices queries
	// with.
	parts  []sortedPart
	groups int

	// version is an FNV-64a digest of the resident rows. It keys the
	// result cache: results are a pure function of (query, version).
	version uint64
}

// NewDataset loads keys and value columns as resident serving data.
// All columns must have exactly len(keys) rows; at least one row and
// one column are required. The input slices are retained (not copied)
// in row order and must not be mutated afterwards: the cache key is
// their digest at load, and a partition the load keeps whole (one key)
// aliases them, its runs' extents taken at load — a later write would
// serve stale cached bytes and leave a run summed against an extent it
// no longer has, which is no longer exact.
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
	if uint64(len(keys)) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d rows, at most 2^32 − 1", ErrDataset, len(keys))
	}

	// Local layout: every value column is partitioned beside the keys
	// and sorted by key once, at load time, and each run's extents are
	// recorded — a query only streams each key's run after this. It is
	// the only copy of the rows a Dataset makes.
	d := &Dataset{keys: keys, cols: cols, shards: o.Shards}
	d.parts = sortParts(partition.Recursive(keys, cols, 1, agg.DefaultFanout, o.Workers), o.Workers)
	for i := range d.parts {
		pt := &d.parts[i]
		pt.first = d.groups
		d.groups += len(pt.starts) - 1
	}
	d.version = digestRows(keys, cols)
	return d, nil
}

// sortedPart is one partition of the local layout, its rows sorted by
// key: run r, rows [starts[r], starts[r+1]), holds every row of one key,
// which is group first + r of the key-ordered result, and
// ext[r·C : (r+1)·C] are its extents in the C value columns — what the
// summation kernel's scan finds in each column's run, recorded once so
// that no query scans a run for its Σx.
type sortedPart struct {
	partition.Part[float64]
	starts []uint32
	ext    []rsum.Extent
	first  int
}

// sortParts sorts the rows of every part by key in place, workers at a
// time, and records its runs and their extents. Recursive copied every
// part it split off the input; one it returned whole holds a single
// key, is sorted already, and is left as it is, so the caller's rows
// are never written.
func sortParts(parts []partition.Part[float64], workers int) []sortedPart {
	out := make([]sortedPart, len(parts))
	largest := 0
	for _, pt := range parts {
		largest = max(largest, len(pt.Keys))
	}
	agg.EachPart(len(parts), workers, func() func(p int) {
		var s sorter
		return func(p int) {
			pt := parts[p]
			if !slices.IsSorted(pt.Keys) {
				s.sort(pt, largest)
			}
			starts := runStarts(pt.Keys)
			ext := make([]rsum.Extent, 0, (len(starts)-1)*len(pt.Cols))
			for r := 1; r < len(starts); r++ {
				ext = sqlagg.AppendExtents(ext, pt.Cols, int(starts[r-1]), int(starts[r]))
			}
			out[p] = sortedPart{Part: pt, starts: starts, ext: ext}
		}
	})
	return out
}

// sorter is one load worker's scratch, made by its first sort at the
// largest part's row count and used for every part it sorts: the new
// order of a part's rows as (key, row) pairs, a counting sort's key
// positions, and one column's values in the new order.
type sorter struct {
	order []uint64
	pos   []uint32
	vals  []float64
}

// sort sorts pt's rows by key, every column with the keys. A part whose
// key range is no wider than its rows is counting-sorted over the range;
// a sparser one sorts its packed (key, row) pairs. Both keep each key's
// rows in their order.
func (s *sorter) sort(pt partition.Part[float64], largest int) {
	if s.order == nil {
		s.order, s.pos, s.vals = make([]uint64, largest), make([]uint32, largest), make([]float64, largest)
	}
	n := len(pt.Keys)
	order := s.order[:n]
	if width := uint64(pt.Hi-pt.Lo) + 1; width <= uint64(n) {
		pos := s.pos[:width]
		clear(pos)
		for _, k := range pt.Keys {
			pos[k-pt.Lo]++
		}
		at := uint32(0)
		for i, c := range pos {
			pos[i], at = at, at+c
		}
		for i, k := range pt.Keys {
			order[pos[k-pt.Lo]] = uint64(k)<<32 | uint64(i)
			pos[k-pt.Lo]++
		}
	} else {
		for i, k := range pt.Keys {
			order[i] = uint64(k)<<32 | uint64(i)
		}
		slices.Sort(order)
	}
	for i, o := range order {
		pt.Keys[i] = uint32(o >> 32)
	}
	vals := s.vals[:n]
	for _, col := range pt.Cols {
		for i, o := range order {
			vals[i] = col[uint32(o)]
		}
		copy(col, vals)
	}
}

// runStarts returns where each run of equal keys starts in sorted keys,
// followed by len(keys).
func runStarts(keys []uint32) []uint32 {
	runs := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1] {
			runs++
		}
	}
	starts := make([]uint32, 1, runs+1)
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1] {
			starts = append(starts, uint32(i))
		}
	}
	return append(starts, uint32(len(keys)))
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

// views cuts the rows into n contiguous views, as even as n allows, for
// a distributed backend of n nodes. They alias the row-order arrays.
func (d *Dataset) views(n int) (keys [][]uint32, cols [][][]float64) {
	keys, cols = make([][]uint32, n), make([][][]float64, n)
	q, r := len(d.keys)/n, len(d.keys)%n
	for i := range keys {
		lo := i*q + min(i, r)
		hi := lo + q
		if i < r {
			hi++
		}
		keys[i] = d.keys[lo:hi]
		cols[i] = make([][]float64, len(d.cols))
		for c, col := range d.cols {
			cols[i][c] = col[lo:hi]
		}
	}
	return keys, cols
}

// Rows returns the resident row count.
func (d *Dataset) Rows() int { return len(d.keys) }

// Cols returns the value-column count.
func (d *Dataset) Cols() int { return len(d.cols) }

// Version returns the dataset's content digest. Results are a pure
// function of (query, Version); the result cache keys on both.
func (d *Dataset) Version() uint64 { return d.version }

// DistinctBound returns the number of distinct keys, counted at load —
// the group count of every GROUP BY over this data, and the factor
// memory admission multiplies by the per-group tuple price.
func (d *Dataset) DistinctBound() int { return d.groups }

// EstimateBytes returns the estimated peak working memory of q on this
// dataset: the admission-control price a server compares against its
// per-query budget. For a GROUP BY the estimate is
//
//	DistinctBound × (TupleSize(specs) + 2 × rowWidth)
//
// — one encoded state tuple per group, plus the finalized in-memory
// rows and their canonical result encoding (rowWidth = 4-byte key + 8
// bytes per spec). DistinctBound is the exact group count, so the
// estimate upper-bounds the group-dependent allocations:
// TupleSize is the logical width, read off the catalog as if no two
// specs shared a component, and the physical tuple the engine keeps per
// group (sqlagg.TuplePlan) shares them, so it is never wider. Pricing
// allocates nothing. The local engine holds no summation buffers: it
// folds each key's run into one tuple per worker, whose scratch for
// squares (256 values per sum) is a per-worker constant. The distributed plane's
// tables do buffer, planned so that one partition's fill Eq. 4's budget
// (agg.CacheBytesPerThread, 1 MiB), so each of its workers holds a few
// MiB of buffers at most, however many groups the query has. Neither is
// group-dependent, and the per-query budget prices neither.
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
		sz, err := sqlagg.TupleSize([]sqlagg.AggSpec{{Kind: sqlagg.AggSum, Levels: q.Levels}})
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		return d.DistinctBound()*sz + 16*d.Rows(), nil
	default:
		return 0, fmt.Errorf("%w: unknown query kind %d", ErrBadQuery, byte(q.Kind))
	}
}

// digestRows computes the FNV-64a content digest over the keys and the
// exact bit patterns of every value column, little-endian, folded
// inline: hash/fnv's Write per value cost a call each. Bit patterns,
// not values: two datasets that differ only in a NaN payload or a
// signed zero are different data and must not share cache entries.
func digestRows(keys []uint32, cols [][]float64) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, k := range keys {
		h = (h ^ uint64(k&0xFF)) * prime64
		h = (h ^ uint64(k>>8&0xFF)) * prime64
		h = (h ^ uint64(k>>16&0xFF)) * prime64
		h = (h ^ uint64(k>>24)) * prime64
	}
	for _, col := range cols {
		for _, v := range col {
			b := math.Float64bits(v)
			h = (h ^ b&0xFF) * prime64
			h = (h ^ b>>8&0xFF) * prime64
			h = (h ^ b>>16&0xFF) * prime64
			h = (h ^ b>>24&0xFF) * prime64
			h = (h ^ b>>32&0xFF) * prime64
			h = (h ^ b>>40&0xFF) * prime64
			h = (h ^ b>>48&0xFF) * prime64
			h = (h ^ b>>56) * prime64
		}
	}
	return h
}
