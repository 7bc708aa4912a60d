// Package groupby is the tuple GROUP BY's table and cache model: the
// paper's PARTITIONANDAGGREGATE (§V-A–C) over sqlagg's physical tuples
// is agg's operator with this package's pieces dropped in — the
// aggregation table (Table, whose AddRows is the row fold: a batch of
// rows' tuples resolved in one probe pass, then sqlagg's batch fold one
// component at a time) and the model that says whether to partition and
// how long the summation buffers are (Layout). The rows are partitioned
// by partition.Recursive and folded partition by partition in
// agg.AggregateParts; nothing here knows where
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
	bsz  int
}

// NewTable builds a table of bsz-buffered tuples for about hint groups;
// a hint that never undercounts means it never rehashes. Its tuples come
// from one sqlagg.TupleSlab sized from the same hint, so a table is a
// handful of allocations whatever its group count.
func NewTable(plan *sqlagg.TuplePlan, hint, bsz int) *Table {
	return &Table{hashagg.New(hint, hashagg.Identity, plan.NewSlab(bsz, hint).NewTuple), plan, bsz}
}

// Recycle is NewTable for a caller that keeps its last table: t itself,
// cleared, when it was made for the same plan and bsz and holds hint
// groups without growing — its tuples then keep their shape and their
// buffers, and are reset in place as keys reuse their slots — and
// otherwise, a nil t included, a new table.
func Recycle(t *Table, plan *sqlagg.TuplePlan, hint, bsz int) *Table {
	if t == nil || t.plan != plan || t.bsz != bsz || t.Cap() < 2*hint {
		return NewTable(plan, hint, bsz)
	}
	t.Clear()
	return t
}

// AddRows is the row loop of the tuple pipeline (agg.AggregateParts'
// fold): row i of cols folds into the tuple of keys[i]. It takes the
// rows sqlagg.BatchRows at a time: one probe pass resolves the batch's
// tuples — again if the table grew meanwhile, since growing moves every
// tuple — and sqlagg.TuplePlan.AddBatch folds them one component at a
// time. It allocates nothing unless the table grows.
func (t *Table) AddRows(keys []uint32, cols [][]float64) {
	var ts [sqlagg.BatchRows]*sqlagg.Tuple
	for lo := 0; lo < len(keys); lo += sqlagg.BatchRows {
		batch := ts[:min(len(keys)-lo, sqlagg.BatchRows)]
		for grown := true; grown; {
			c := t.Cap()
			for i, k := range keys[lo : lo+len(batch)] {
				batch[i] = t.Upsert(k)
			}
			grown = t.Cap() != c
		}
		t.plan.AddBatch(batch, cols, lo)
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
		// Capped, so appending to one group's Aggs never overwrites the next's.
		out = append(out, Group{Key: key, Aggs: vals[len(vals)-nspecs : len(vals) : len(vals)]})
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
//
// Re-measured with the batch fold (BenchmarkTupleCombine, 2^19 rows,
// medians of 5 alternating runs on a 2-vCPU VM, ns/row, row-at-a-time
// fold → batch fold, planned bsz / forced 0): Q1 at 4 groups whole
// 31.2 → 18.1 / 83.8 → 57.4, at 512 whole 33.1 → 27.2 / 81.4 → 57.0, at
// 4096 partitioned 84.8 → 70.4 / 132 → 105, at 2^16 partitioned (bsz 0
// planned) 163 → 150; the narrow catalog at 4 groups 15.2 → 9.0 /
// 18.1 → 12.3, at 4096 26.2 → 26.7 / 32.2 → 30.2. Buffering still wins
// wherever it is planned, and at 8 and 16 rows per key (2^16 and 2^15
// groups, partitioned) bsz 8, 16 and 0 stay within noise of each other
// either way: the crossover did not move, so neither did the model.
func Layout(plan *sqlagg.TuplePlan, groups, perGroup int) (partition bool, bsz int) {
	if rb := plan.RowBytes(); rb > 0 {
		bsz = agg.PlanBuffer(groups, perGroup, rb)
	}
	return groups > agg.CacheBytesPerThread/(2*plan.TupleBytes()), bsz
}

// Deal deals rows round-robin into n shards, row i to row i/n of shard
// i mod n — the sharding the equivalence tests and benchmarks use. A
// shard's keys and its columns are two allocations sized up front; the
// columns are capped apart within theirs, each starting on a 64-byte
// line as a column of its own would (the distributed GROUP BY ran about
// a tenth slower over columns that did not).
func Deal(keys []uint32, cols [][]float64, n int) (shardKeys [][]uint32, shardCols [][][]float64) {
	shardKeys = make([][]uint32, n)
	shardCols = make([][][]float64, n)
	for s := range shardKeys {
		rows := (len(keys) + n - 1 - s) / n
		shardKeys[s] = make([]uint32, rows)
		shardCols[s] = make([][]float64, len(cols))
		stride := (rows + 7) &^ 7
		slab := make([]float64, stride*len(cols))
		for c := range cols {
			shardCols[s][c] = slab[c*stride : c*stride+rows : c*stride+rows]
		}
	}
	for i, k := range keys {
		shardKeys[i%n][i/n] = k
	}
	for c, col := range cols {
		for i := range keys {
			shardCols[i%n][c][i/n] = col[i]
		}
	}
	return shardKeys, shardCols
}
