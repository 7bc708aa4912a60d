// Package groupby is the tuple GROUP BY's table and cache model: the
// paper's PARTITIONANDAGGREGATE (§V-A–C) over sqlagg's physical tuples
// is agg's operator with this package's pieces dropped in — the
// aggregation table (Table, whose AddRows is the row fold) and the model
// that says whether to partition and how long the summation buffers are
// (Layout). The rows are partitioned by partition.Recursive and folded
// partition by partition in agg.AggregateParts; nothing here knows where
// rows come from or where groups go: dist's combiner sinks tables into
// shuffle frames, dist's owner merges records into a Table, serve's
// local engine finalizes each resident partition's run.
package groupby

import (
	"repro/internal/agg"
	"repro/internal/hashagg"
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

// NewTable builds a table of bsz-buffered tuples for about hint groups;
// a hint that never undercounts means it never rehashes. Its tuples come
// from one sqlagg.TupleSlab sized from the same hint, so a table is a
// handful of allocations whatever its group count.
func NewTable(plan *sqlagg.TuplePlan, hint, bsz int) *Table {
	return &Table{hashagg.New(hint, hashagg.Identity, plan.NewSlab(bsz, hint).NewTuple), plan}
}

// AddRows is the row loop of the tuple pipeline (agg.AggregateParts'
// fold): row i of cols folds into the tuple of keys[i].
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

// Groups finalizes every tuple into a run in key order
// (hashagg.Table.ForEachSorted); a nil table has no groups.
func (t *Table) Groups() []Group {
	if t == nil {
		return nil
	}
	nspecs := t.plan.Specs()
	out := make([]Group, 0, t.Len())
	vals := make([]float64, 0, t.Len()*nspecs)
	t.ForEachSorted(func(key uint32, tup *sqlagg.Tuple) {
		vals = t.plan.Finalize(vals, tup)
		out = append(out, Group{Key: key, Aggs: vals[len(vals)-nspecs:]})
	})
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
