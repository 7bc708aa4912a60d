// Package groupby is the tuple GROUP BY executor: the paper's
// PARTITIONANDAGGREGATE (§V-A–C) over sqlagg's physical tuples. It owns
// the four things every tuple GROUP BY of the repository needs — the
// aggregation table (Table), rows radix-partitioned with their values
// (Parts), the cache model that says whether to partition and how long
// the summation buffers are (Layout), and the loop over partitions
// (Parts.Each) — and nothing about where rows come from or where groups
// go: dist's combiner sinks tables into shuffle frames, dist's owner
// merges records into a Table, serve's local engine finalizes each
// resident partition's run.
package groupby

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/hashagg"
	"repro/internal/partition"
	"repro/internal/sqlagg"
)

// Group is one output row of a multi-aggregate GROUP BY: the group key
// plus one finalized value per aggregate spec, in spec order.
type Group struct {
	Key  uint32
	Aggs []float64
}

// Table is the aggregation table of the tuple pipeline: key →
// sqlagg.Tuple, the plan's physical components (one reproducible sum
// per distinct (column, x|x², levels), one shared row count, one
// extremum per (column, MIN|MAX)) behind bsz-value summation buffers.
type Table struct {
	*hashagg.Table[sqlagg.Tuple]
	plan *sqlagg.TuplePlan
}

// NewTable builds a table for about hint groups; a hint that never
// undercounts means it never rehashes. Its tuples come from one
// sqlagg.TupleSlab sized from the same hint, so a table is a handful of
// allocations whatever its group count. Keys that agree on their low
// lowBits bits (a radix partition's) index above them.
func NewTable(plan *sqlagg.TuplePlan, hint int, lowBits uint, bsz int) *Table {
	return &Table{hashagg.NewPartitioned(hint, hashagg.Identity, plan.NewSlab(bsz, hint).NewTuple, lowBits), plan}
}

// AddRows is the row loop of the tuple pipeline: row i of cols folds
// into the tuple of keys[i].
func (t *Table) AddRows(keys []uint32, cols [][]float64) {
	plan := t.plan
	for i, k := range keys {
		plan.AddRow(t.Upsert(k), cols, i)
	}
}

// MergeBinary folds one encoded tuple (sqlagg.TuplePlan.AppendBinary's
// bytes, from across a trust boundary) into key's.
func (t *Table) MergeBinary(key uint32, enc []byte) error {
	return t.plan.MergeBinary(t.Upsert(key), enc)
}

// Groups finalizes every tuple into a key-sorted run; a nil table has
// no groups.
func (t *Table) Groups() []Group {
	if t == nil {
		return nil
	}
	nspecs := t.plan.Specs()
	out := make([]Group, 0, t.Len())
	vals := make([]float64, 0, t.Len()*nspecs)
	t.ForEach(func(key uint32, tup *sqlagg.Tuple) {
		vals = t.plan.Finalize(vals, tup)
		out = append(out, Group{Key: key, Aggs: vals[len(vals)-nspecs:]})
	})
	slices.SortFunc(out, func(a, b Group) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// Layout is the cache model behind every table, stated once. partition:
// a table keeps at least two slots per key, and groups keys at two
// tuples each must fit agg.CacheBytesPerThread or the rows are better
// radix-partitioned first (BenchmarkTupleCombine runs both layouts on
// either side: for the Q1 catalog's 696-byte tuples they cross near
// 2^10 groups and the model says 753). bsz: the summation buffer length
// of a table that holds groups tuples at once, each expected to receive
// perGroup rows — Eq. 4 (agg.PlanBuffer) at the bytes a row appends, so
// the buffers never outgrow that budget, and 0 rather than a buffer
// under agg.MinBufferSize. A partitioned input asks again with its
// largest partition's bound and takes only bsz.
func Layout(plan *sqlagg.TuplePlan, groups, perGroup int) (partition bool, bsz int) {
	if rb := plan.RowBytes(); rb > 0 {
		bsz = agg.PlanBuffer(groups, perGroup, rb)
	}
	return groups > agg.CacheBytesPerThread/(2*plan.TupleBytes()), bsz
}

// KeyBound bounds the distinct keys of a key column: its
// length or the width of its key range, whichever is less — tight for
// dense domain-encoded keys, never an undercount.
func KeyBound(keys []uint32) int { return partition.KeyBound(keys, 1) }

// Parts is rows radix-partitioned on the low key bits: partition p's
// keys are Keys[Off[p]:Off[p+1]] and its values of every carried column
// c Cols[c][Off[p]:Off[p+1]] (the others stay nil). The values move
// with the keys so that aggregation reads a partition sequentially:
// gathering them through partitioned row indices fetches each cache
// line once per partition owning a value in it, with nothing to
// prefetch — at 256 partitions two thirds of the pass.
type Parts struct {
	Keys []uint32
	Off  []int
	Cols [][]float64
	// Bounds[p] is partition p's DistinctBound — never an undercount —
	// MaxBound the largest and SumBound their total.
	Bounds             []int
	MaxBound, SumBound int
}

// Partition scatters keys, and beside them every column carry admits,
// into fanout partitions (a power of two) with workers parallel
// workers. The row order inside a partition depends on workers; no
// result does, the aggregates being order-independent.
func Partition(keys []uint32, cols [][]float64, carry func(col int) bool, fanout, workers int) *Parts {
	ps := &Parts{Cols: make([][]float64, len(cols))}
	for c, col := range cols {
		switch {
		case !carry(c):
		case ps.Keys == nil:
			ps.Cols[c] = setParts(ps, partition.Do(keys, col, 0, fanout, workers))
		default:
			ps.Cols[c] = partition.Scatter(keys, ps.Off, col, 0)
		}
	}
	if ps.Keys == nil { // COUNT only: no column to carry, but the keys
		setParts(ps, partition.Do(keys, make([]struct{}, len(keys)), 0, fanout, workers))
	}
	return ps
}

// setParts records out's keys, offsets and distinct-key bounds in ps
// and returns its partitioned values.
func setParts[V any](ps *Parts, out partition.Output[V]) []V {
	ps.Keys, ps.Off = out.Keys, out.Off
	ps.Bounds = make([]int, out.NumPartitions())
	for p := range ps.Bounds {
		b := out.DistinctBound(p, uint32(len(ps.Bounds)))
		ps.Bounds[p] = b
		ps.MaxBound = max(ps.MaxBound, b)
		ps.SumBound += b
	}
	return out.Vals
}

// Each is the partition loop: every non-empty partition's rows are
// folded into a cleared table of bsz-buffered tuples, which sink then
// reads (and must not keep). workers goroutines share the partitions,
// each with one table for all it drains — hinted at MaxBound, so it
// never rehashes mid-partition, indexed by the bits above the ones
// Partition routed on, its slots and tuples recycled in place — so a
// pass allocates O(workers), not O(partitions). One worker visits the
// partitions in order. The first sink error stops its worker and is
// returned.
func (ps *Parts) Each(plan *sqlagg.TuplePlan, bsz, workers int, sink func(p int, t *Table) error) error {
	errs := make([]error, max(1, min(workers, len(ps.Bounds))))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			table := NewTable(plan, ps.MaxBound, uint(bits.TrailingZeros(uint(len(ps.Bounds)))), bsz)
			cols := make([][]float64, len(ps.Cols))
			for errs[w] == nil {
				p := int(next.Add(1)) - 1
				if p >= len(ps.Bounds) {
					return
				}
				lo, hi := ps.Off[p], ps.Off[p+1]
				if lo == hi {
					continue
				}
				for c, col := range ps.Cols {
					if col != nil {
						cols[c] = col[lo:hi]
					}
				}
				table.Clear()
				table.AddRows(ps.Keys[lo:hi], cols)
				errs[w] = sink(p, table)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Deal deals rows round-robin into n shards, row i to shard i mod n —
// the sharding the distributed backends, equivalence tests and
// benchmarks use.
func Deal(keys []uint32, cols [][]float64, n int) (shardKeys [][]uint32, shardCols [][][]float64) {
	shardKeys = make([][]uint32, n)
	shardCols = make([][][]float64, n)
	for s := range shardCols {
		shardCols[s] = make([][]float64, len(cols))
	}
	for i, k := range keys {
		s := i % n
		shardKeys[s] = append(shardKeys[s], k)
		for c := range cols {
			shardCols[s][c] = append(shardCols[s][c], cols[c][i])
		}
	}
	return shardKeys, shardCols
}
