// Package groupby is the tuple GROUP BY's table and cache model: the
// paper's PARTITIONANDAGGREGATE (§V-A–C) over sqlagg's physical tuples
// is agg's operator with this package's pieces dropped in — the
// aggregation table (Table: 12-byte slots at key − Lo or probed, the
// groups' components and summation buffers in sqlagg.TupleColumns, and
// AddPart / AddRows, the row fold: a batch of rows' buffer positions
// resolved in one pass over the slots, then stored one component at a
// time) and the model that says whether to partition and how long the
// summation buffers are (Layout). The rows are partitioned by
// partition.Recursive and folded partition by partition in
// agg.AggregateParts; nothing here knows where
// rows come from or where groups go: dist's combiner sinks tables into
// shuffle frames, and dist's owner merges records into a Table. (Serve's
// local engine needs no table: its resident rows are sorted by key.)
package groupby

import (
	"cmp"
	"slices"

	"repro/internal/agg"
	"repro/internal/partition"
	"repro/internal/sqlagg"
)

// Group is one output row of a multi-aggregate GROUP BY: the group key
// plus one finalized value per aggregate spec, in spec order.
type Group struct {
	Key  uint32
	Aggs []float64
}

// Table is the aggregation table of the tuple pipeline: key → the
// plan's physical components (one reproducible sum per distinct
// (column, x|x², levels), one shared row count, one extremum per
// (column, MIN|MAX)) behind bsz-value summation buffers, laid out as
// agg's GroupBySum lays out its sums. A 12-byte slot holds a group's
// key, its number and its buffer's fill; the components and the buffers
// are the group's in sqlagg.TupleColumns, which numbers groups in
// arrival order, so growing the table moves slots only. Key k's first
// slot is k − lo modulo the capacity, lo being the low key of the part
// the table was given empty (0 for a new table), and keys probe
// linearly from there: a part whose range fits the table never probes
// and leaves its keys in slot order.
type Table struct {
	plan  *sqlagg.TuplePlan
	bsz   int
	slots []slot
	cols  sqlagg.TupleColumns

	lo, mask uint32 // key k's first slot is (k − lo) & mask
	buffered int32  // groups 0 … buffered − 1 have a buffer
	stride   int32  // arena values per buffer
	order    []uint32
}

type slot struct {
	key  uint32
	g    int32 // 0 absent, else the group's number + 1
	fill int32 // values in the group's buffer
}

// batchRows is the most rows AddRows resolves before it stores them.
const batchRows = 256

// NewTable builds a table of bsz-buffered groups for about hint groups:
// a power of two of at least 2·hint slots, so a hint that never
// undercounts means it never grows, and columns for hint groups. The
// groups get buffers in arrival order until the arena would pass
// agg.MaxArenaBytes; later ones add to their states directly, which
// changes their speed, never their bits. A table is a handful of
// allocations whatever its group count.
func NewTable(plan *sqlagg.TuplePlan, hint, bsz int) *Table {
	capacity := 16
	for capacity < 2*hint {
		capacity <<= 1
	}
	buffered := 0
	if b := plan.RowBytes() * bsz; b > 0 {
		buffered = agg.MaxArenaBytes / b
	}
	t := &Table{plan: plan, bsz: bsz, cols: plan.NewColumns(hint, bsz, buffered), buffered: int32(buffered)}
	t.stride = int32(t.cols.Stride())
	t.resize(capacity)
	return t
}

func (t *Table) resize(capacity int) {
	t.slots = make([]slot, capacity)
	t.mask = uint32(capacity - 1)
}

// Recycle is NewTable for a caller that keeps its last table: t itself,
// cleared, when it was made for the same plan and bsz and holds hint
// groups without growing, and otherwise, a nil t included, a new table.
func Recycle(t *Table, plan *sqlagg.TuplePlan, hint, bsz int) *Table {
	if t == nil || t.plan != plan || t.bsz != bsz || t.Cap() < 2*hint {
		return NewTable(plan, hint, bsz)
	}
	t.Clear()
	return t
}

// Len returns the number of groups.
func (t *Table) Len() int { return t.cols.Len() }

// Cap returns the slot capacity.
func (t *Table) Cap() int { return len(t.slots) }

// Clear empties the table, keeping its memory.
func (t *Table) Clear() {
	clear(t.slots)
	t.cols.Clear()
}

// AddPart folds a partition's rows, every key of which lies in
// [pt.Lo, pt.Hi]: agg.AggregateParts' fold. Into an empty table, key k
// goes to slot k − pt.Lo, with no probe when the range fits the table
// (a part's Bound-sized table always fits a dense part's).
func (t *Table) AddPart(pt partition.Part[float64]) {
	if t.Len() == 0 {
		t.lo = pt.Lo
	}
	t.fold(pt.Keys, pt.Cols)
}

// AddRows folds row i of cols into the group of keys[i]. It allocates
// nothing unless the table grows.
func (t *Table) AddRows(keys []uint32, cols [][]float64) { t.fold(keys, cols) }

// fold is the row loop. It takes the rows batchRows at a time: one pass
// resolves their groups — for buffered groups, the arena positions
// their values go to — and sqlagg.TupleColumns folds them one component
// at a time, into the arena (Store) or straight into the states of
// unbuffered groups (Add). A batch of buffered rows ends at the row
// that fills its group's buffer, which is flushed before the next
// batch, and before a row whose group has no buffer, which is added on
// its own.
func (t *Table) fold(keys []uint32, cols [][]float64) {
	var at [batchRows]int32
	if t.buffered == 0 {
		for lo := 0; lo < len(keys); lo += batchRows {
			gs := at[:min(len(keys)-lo, batchRows)]
			for n := 0; n < len(gs); n++ {
				n += t.resolve(keys[lo+n:lo+len(gs)], gs[n:])
				if n < len(gs) {
					gs[n] = t.slots[t.find(keys[lo+n])].g - 1
				}
			}
			t.cols.Add(gs, cols, lo)
		}
		return
	}
	bsz, stride := int32(t.bsz), t.stride
	for lo := 0; lo < len(keys); {
		batch, n, full := keys[lo:min(len(keys), lo+batchRows)], 0, -1
		for n < len(batch) {
			if n += t.reserve(batch[n:], at[n:]); n == len(batch) {
				break
			}
			s := t.find(batch[n])
			e := &t.slots[s]
			if e.g > t.buffered {
				break
			}
			at[n] = (e.g-1)*stride + e.fill
			n++
			if e.fill++; e.fill == bsz {
				full = int(s)
				break
			}
		}
		if n == 0 { // keys[lo]'s group has no buffer
			at[0] = t.slots[t.find(keys[lo])].g - 1
			t.cols.Add(at[:1], cols, lo)
			lo++
			continue
		}
		t.cols.Store(at[:n], cols, lo)
		if full >= 0 {
			t.flush(full)
		}
		lo += n
	}
}

// resolve writes the group number of keys[i] to gs[i] while keys[i] is
// in its first slot, and returns how many it wrote.
func (t *Table) resolve(keys []uint32, gs []int32) int {
	slots, lo, mask := t.slots, t.lo, t.mask
	gs = gs[:len(keys)]
	for i, k := range keys {
		e := &slots[(k-lo)&mask]
		if e.g == 0 || e.key != k {
			return i
		}
		gs[i] = e.g - 1
	}
	return len(keys)
}

// reserve is the row loop of a buffered table: a row reads its slot and
// takes the arena position of its buffer's next value (at[i]). It calls
// nothing, and returns at the first row that needs more (a new group, a
// probe, a group without a buffer, or a buffer the row fills) the
// number of rows it took.
func (t *Table) reserve(keys []uint32, at []int32) int {
	slots, lo, mask := t.slots, t.lo, t.mask
	last, stride, buffered := int32(t.bsz-1), t.stride, uint32(t.buffered)
	at = at[:len(keys)]
	for i, k := range keys {
		e := &slots[(k-lo)&mask]
		if uint32(e.g-1) >= buffered || e.key != k || e.fill == last {
			return i
		}
		at[i] = (e.g-1)*stride + e.fill
		e.fill++
	}
	return len(keys)
}

// find returns key's slot, claiming one for a new group. A table that
// is 70 % full grows first; keys in a range that fits it stay at k − lo.
func (t *Table) find(key uint32) uint32 {
	s := (key - t.lo) & t.mask
	for ; t.slots[s].g != 0; s = (s + 1) & t.mask {
		if t.slots[s].key == key {
			return s
		}
	}
	if t.Len() >= len(t.slots)*7/10 {
		t.grow()
		return t.find(key)
	}
	t.slots[s] = slot{key: key, g: int32(t.cols.Claim()) + 1}
	return s
}

// grow doubles the table, moving every slot; the groups stay where
// they are in the columns.
func (t *Table) grow() {
	old := t.slots
	t.resize(2 * len(old))
	for _, e := range old {
		if e.g != 0 {
			s := (e.key - t.lo) & t.mask
			for t.slots[s].g != 0 {
				s = (s + 1) & t.mask
			}
			t.slots[s] = e
		}
	}
}

// flush empties slot s's buffer into its group's sums.
func (t *Table) flush(s int) {
	if e := &t.slots[s]; e.fill > 0 {
		t.cols.Flush(int(e.g-1), int(e.fill))
		e.fill = 0
	}
}

// MergeBinary folds one encoded tuple (sqlagg.TuplePlan.AppendBinary's
// bytes, from across a trust boundary) into key's group.
func (t *Table) MergeBinary(key uint32, enc []byte) error {
	s := t.find(key)
	t.flush(int(s))
	return t.cols.MergeBinary(int(t.slots[s].g-1), enc)
}

// ForEach flushes every group and hands fn its key and a read-only
// view of its components, in slot order: key order for a part whose
// range fits the table. The view is valid during the call only.
func (t *Table) ForEach(fn func(key uint32, tup *sqlagg.Tuple)) {
	for s, e := range t.slots {
		if e.g != 0 {
			t.flush(s)
			fn(e.key, t.cols.Tuple(int(e.g-1)))
		}
	}
}

// Groups finalizes every group into a run in key order: slot order
// when the slots hold their keys in order — a fitting part's, dense keys'
// — which one pass over the slots establishes, and otherwise the used
// slots (not the groups) sorted by key. A nil table has no groups.
func (t *Table) Groups() []Group {
	if t == nil {
		return nil
	}
	t.order = t.order[:0]
	sorted, prev := true, uint32(0)
	for s, e := range t.slots {
		if e.g != 0 {
			sorted, prev = sorted && prev <= e.key, e.key
			t.order = append(t.order, uint32(s))
		}
	}
	if !sorted {
		slices.SortFunc(t.order, func(a, b uint32) int { return cmp.Compare(t.slots[a].key, t.slots[b].key) })
	}
	nspecs := t.plan.Specs()
	out := make([]Group, 0, len(t.order))
	vals := make([]float64, 0, len(t.order)*nspecs)
	for _, s := range t.order {
		t.flush(int(s))
		vals = t.plan.Finalize(vals, t.cols.Tuple(int(t.slots[s].g-1)))
		// Capped, so appending to one group's Aggs never overwrites the next's.
		out = append(out, Group{Key: t.slots[s].key, Aggs: vals[len(vals)-nspecs : len(vals) : len(vals)]})
	}
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
// The model still prices a group at plan.TupleBytes, a standalone
// tuple's header and components, which is 64 bytes more on 64-bit
// builds than the columnar table spends on a group beside the same
// components (its two slots and its count); it was not refit to that.
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
