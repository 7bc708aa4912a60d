package groupby

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sqlagg"
	"repro/internal/workload"
)

const (
	levels = core.DefaultLevels
	fanout = 256 // the radix fan-out dist shuffles on: a key's owner is its low byte's
)

// tupleSpecs is a mix of state shapes (rsum-backed SUM/AVG/VAR, the
// 8-byte COUNT, the 9-byte MIN/MAX) over two value columns.
func tupleSpecs() []sqlagg.AggSpec {
	return []sqlagg.AggSpec{
		{Kind: sqlagg.AggSum, Levels: levels, Col: 0},
		{Kind: sqlagg.AggAvg, Levels: levels, Col: 1},
		{Kind: sqlagg.AggCount, Levels: levels, Col: 0},
		{Kind: sqlagg.AggVarPop, Levels: levels, Col: 0},
		{Kind: sqlagg.AggMin, Levels: levels, Col: 1},
		{Kind: sqlagg.AggMax, Levels: levels, Col: 0},
	}
}

// q1Catalog is TPC-H Q1's aggregate list (tpch.Q1Specs, which imports
// this package): 4×SUM + 3×AVG + COUNT over five columns.
func q1Catalog(levels int) []sqlagg.AggSpec {
	return []sqlagg.AggSpec{
		{Kind: sqlagg.AggSum, Levels: levels, Col: 0},
		{Kind: sqlagg.AggSum, Levels: levels, Col: 1},
		{Kind: sqlagg.AggSum, Levels: levels, Col: 2},
		{Kind: sqlagg.AggSum, Levels: levels, Col: 3},
		{Kind: sqlagg.AggAvg, Levels: levels, Col: 0},
		{Kind: sqlagg.AggAvg, Levels: levels, Col: 1},
		{Kind: sqlagg.AggAvg, Levels: levels, Col: 4},
		{Kind: sqlagg.AggCount, Levels: levels, Col: 0},
	}
}

// narrowCatalog is one sum and the row count behind three specs.
func narrowCatalog(levels int) []sqlagg.AggSpec {
	return []sqlagg.AggSpec{
		{Kind: sqlagg.AggSum, Levels: levels, Col: 0},
		{Kind: sqlagg.AggAvg, Levels: levels, Col: 0},
		{Kind: sqlagg.AggCount, Levels: levels, Col: 0},
	}
}

func mustPlan(t testing.TB, specs []sqlagg.AggSpec) *sqlagg.TuplePlan {
	t.Helper()
	plan, err := sqlagg.NewTuplePlan(specs)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestLayoutDecisions is the model's decision table: when a plan's
// summation buffers are planned and how long, and up to how many groups
// one table of a shard's keys is taken to fit the cache.
func TestLayoutDecisions(t *testing.T) {
	type buffer struct{ groups, perGroup, want int }
	for _, tc := range []struct {
		name    string
		specs   []sqlagg.AggSpec
		buffers []buffer
	}{
		{
			name:  "Q1 catalog: five sums",
			specs: q1Catalog(2),
			buffers: []buffer{
				{4, 1 << 17, 1024},    // few groups, many rows: bszmax
				{4, 100, 128},         // capped by what a group receives
				{256, 8, 0},           // fewer than MinBufferSize rows per group
				{512, 1 << 12, 32},    // 5 × 32 × 8 × 512 = 640 KiB fits the budget
				{1024, 1 << 12, 0},    // 5 × 32 × 8 × 1024 exceeds it: none, not a 16-value buffer
				{1 << 16, 1 << 12, 0}, // far beyond
			},
		},
		{
			name:    "single SUM",
			specs:   []sqlagg.AggSpec{{Kind: sqlagg.AggSum, Levels: 2, Col: 0}},
			buffers: []buffer{{1024, 1 << 12, 128}, {4096, 1 << 12, 32}, {8192, 1 << 12, 0}},
		},
		{
			name:    "COUNT only: no sums, so never a buffer",
			specs:   []sqlagg.AggSpec{{Kind: sqlagg.AggCount, Col: 9}},
			buffers: []buffer{{4, 1 << 17, 0}},
		},
	} {
		plan := mustPlan(t, tc.specs)
		for _, b := range tc.buffers {
			if _, got := Layout(plan, b.groups, b.perGroup); got != b.want {
				t.Errorf("%s: bsz(%d groups, %d rows each) = %d, want %d", tc.name, b.groups, b.perGroup, got, b.want)
			}
		}
	}

	// The fits side, at the distributed plane's level count: 4 groups
	// (dist_q1), the model's boundary and one past it, 2^16 groups
	// (cluster_shuffle). The boundary is the budget over two tuples; the
	// tuple sizes (and so the boundary) are pinned where pointers are 64
	// bits wide — slice headers are narrower on 32-bit builds.
	for _, tc := range []struct {
		name        string
		specs       []sqlagg.AggSpec
		bytes, fits int // on 64-bit builds: the tuple size, the most groups one table holds
	}{
		{"Q1 catalog", q1Catalog(levels), 696, 753},
		{"narrow catalog", narrowCatalog(levels), 216, 2427},
	} {
		plan := mustPlan(t, tc.specs)
		fits := agg.CacheBytesPerThread / (2 * plan.TupleBytes())
		if unsafe.Sizeof(uintptr(0)) == 8 && (plan.TupleBytes() != tc.bytes || fits != tc.fits) {
			t.Errorf("%s: %d-byte tuples, %d groups fit; want %d and %d", tc.name, plan.TupleBytes(), fits, tc.bytes, tc.fits)
		}
		for groups, want := range map[int]bool{4: false, fits: false, fits + 1: true, 1 << 16: true} {
			if got, _ := Layout(plan, groups, 1<<20/groups); got != want {
				t.Errorf("%s: partition at %d groups = %v, want %v", tc.name, groups, got, want)
			}
		}
	}
}

// records is what an entry of the executor hands on, as dist's combiner
// ships it: records[d][key] is key's encoded tuple, d the key's owner
// among len(records) nodes.
type records []map[uint32]string

// sink returns a drain (safe for any worker count) that encodes every
// tuple of a table into its owner's records and fails the test on a key
// seen before, so the maps hold the multiset of records.
func (r records) sink(t *testing.T, plan *sqlagg.TuplePlan) func(int, *Table) {
	var mu sync.Mutex
	return func(_ int, table *Table) {
		mu.Lock()
		defer mu.Unlock()
		table.ForEach(func(key uint32, tup *sqlagg.Tuple) {
			enc, err := plan.AppendBinary(nil, tup)
			d := int(key%fanout) % len(r)
			if _, dup := r[d][key]; dup || err != nil {
				t.Errorf("key %d: second record %v, encode error %v", key, dup, err)
			}
			r[d][key] = string(enc)
		})
	}
}

// aggregate is agg's partition loop over parts with this package's
// table and row fold, as dist's combiner and serve's local engine run it.
func aggregate(plan *sqlagg.TuplePlan, parts []partition.Part[float64], bsz, workers int, drain func(int, *Table)) {
	agg.AggregateParts(parts, workers, func(bound int) *Table { return NewTable(plan, bound, bsz) }, (*Table).AddPart, drain)
}

// readColumns is cols with every column the plan does not read nil: what
// dist's combiner carries through the partitioning pass.
func readColumns(plan *sqlagg.TuplePlan, cols [][]float64) [][]float64 {
	read := make([][]float64, len(cols))
	for c := range cols {
		if plan.Reads(c) {
			read[c] = cols[c]
		}
	}
	return read
}

// TestCombineLayoutsSameRecords: the executor's three entries — one
// table over the rows as they lie, agg's partition loop over rows
// partitioned on the fly into key ranges with the columns the plan
// reads (dist's combiner either way), and the loop over resident parts
// that carry every column (serve's) — produce byte-identical ⟨key,
// tuple⟩ records for the same owners (in an order of their own), with
// buffers and without, for every loop worker count — so which of them
// runs is a matter of cache footprint and of where the rows are only.
// The key shapes are internal/agg's TestKeyShapes' beside the dense
// ones: the high-bit pass leaves an outlier, two clusters or a heavy key
// with most rows behind one digit, which only its repair of overfull
// partitions spreads. Strided keys inside one key range collide in an
// identity table — on agg's path as much as here (ROADMAP item 2,
// "known and left"); sizing each table from its partition's Bound is the
// mitigation both share. The depth-0 Bound, which Layout is asked with,
// never undercounts.
func TestCombineLayoutsSameRecords(t *testing.T) {
	const rows, nodes = 20000, 3
	cols := make([][]float64, 5)
	for c := range cols {
		cols[c] = workload.Values64(uint64(81+c), rows, []workload.ValueDist{workload.MixedMag, workload.Uniform12}[c%2])
	}
	// The value classes of sqlagg's TestTupleMatchesPerSpecStates, spread
	// over every column so that most groups absorb some.
	special := make([][]float64, len(cols))
	classes := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0x1p990, -0x1p990, 0x1p-1074, -0x1p-1060}
	for c := range special {
		special[c] = slices.Clone(cols[c])
		for i := c; i < rows; i += 7 {
			special[c][i] = classes[(i/7+c)%len(classes)]
		}
	}
	same := func(_ int, k uint32) uint32 { return k }
	for _, tc := range []struct {
		name   string
		groups uint32
		key    func(i int, k uint32) uint32 // nil: no rows
		bound  int
		cols   [][]float64
	}{
		{"4 dense", 4, same, 4, cols},
		{"700 dense", 700, func(_ int, k uint32) uint32 { return k + 1000 }, 700, cols},
		{"one partition", 300, func(_ int, k uint32) uint32 { return k<<8 | 5 }, 299<<8 + 1, cols},
		{"sparse", 3000, func(_ int, k uint32) uint32 { return k * 2654435761 }, rows, cols},
		{"special values", 900, same, 900, special},
		{"based 2^31", 1 << 12, func(_ int, k uint32) uint32 { return 1<<31 + k }, 1 << 12, cols},
		{"stride 256", 1 << 9, func(_ int, k uint32) uint32 { return k << 8 }, rows, cols}, // every low byte 0: one owner gets all
		{"outlier", 1 << 16, func(i int, k uint32) uint32 {
			if i == 12345 {
				return 0xFFFFFFFF
			}
			return k
		}, rows, cols},
		{"clusters", 1 << 13, func(i int, k uint32) uint32 {
			if i%8 < 5 {
				return k
			}
			return 0xF0000000 + 1<<13 + k
		}, rows, cols},
		{"heavy key", 1 << 14, func(i int, k uint32) uint32 {
			if i%2 == 0 {
				return 1 << 13
			}
			return k
		}, 1 << 14, cols},
		{"below 256", 200, same, 200, cols},
		{"single key", 1, func(int, uint32) uint32 { return 7 }, 1, cols},
		{"no rows", 1, nil, 0, cols},
	} {
		keys := workload.Keys(83, rows, tc.groups)
		tcCols := tc.cols
		if tc.key == nil {
			keys, tcCols = nil, make([][]float64, len(cols))
		}
		distinct := make(map[uint32]bool)
		for i, k := range keys {
			keys[i] = tc.key(i, k)
			distinct[keys[i]] = true
		}
		bound := 0
		if parts := partition.Recursive(keys, tcCols, 0, agg.DefaultFanout, 1); len(parts) > 0 {
			bound = parts[0].Bound()
		}
		if bound < len(distinct) || bound > tc.bound {
			t.Errorf("%s: keyBound %d for %d distinct keys, want at most %d", tc.name, bound, len(distinct), tc.bound)
		}
		resident := partition.Recursive(keys, tcCols, 1, agg.DefaultFanout, 3)
		for cat, specs := range map[string][]sqlagg.AggSpec{"mixed": tupleSpecs(), "q1": q1Catalog(levels), "narrow": narrowCatalog(levels)} {
			plan := mustPlan(t, specs)
			onTheFly := partition.Recursive(keys, readColumns(plan, tcCols), 1, agg.DefaultFanout, 2)
			run := func(fill func(sink func(int, *Table))) records {
				r := make(records, nodes)
				for d := range r {
					r[d] = make(map[uint32]string)
				}
				fill(r.sink(t, plan))
				return r
			}
			whole := func(bsz int) records {
				return run(func(sink func(int, *Table)) {
					table := NewTable(plan, bound, bsz)
					table.AddRows(keys, tcCols)
					sink(0, table)
				})
			}
			for _, bsz := range []int{0, 64} {
				w := whole(bsz)
				for _, workers := range []int{1, 3, 8} {
					for entry, parts := range map[string][]partition.Part[float64]{"on the fly": onTheFly, "resident": resident} {
						p := run(func(sink func(int, *Table)) { aggregate(plan, parts, bsz, workers, sink) })
						name := fmt.Sprintf("%s, %s, %s × %d", tc.name, cat, entry, workers)
						for d := range w {
							if len(w[d]) == 0 && len(distinct) >= nodes*fanout {
								t.Errorf("%s: no records for owner %d", name, d)
							}
							if !maps.Equal(w[d], p[d]) {
								t.Errorf("%s, bsz %d: owner %d gets %d records unpartitioned, %d partitioned, or different bytes", name, bsz, d, len(w[d]), len(p[d]))
							}
						}
					}
				}
				if len(keys) == 0 {
					continue // dist's combiner ships empty frames without planning
				}
				// What dist's combiner does with the model's answers.
				var picked records
				if split, planned := Layout(plan, bound, rows/bound); !split {
					picked = whole(planned)
				} else {
					maxBound, sumBound := 0, 0
					for _, pt := range onTheFly {
						maxBound, sumBound = max(maxBound, pt.Bound()), sumBound+pt.Bound()
					}
					_, planned = Layout(plan, maxBound, rows/sumBound)
					picked = run(func(sink func(int, *Table)) { aggregate(plan, onTheFly, planned, 1, sink) })
				}
				for d, recs := range picked {
					if !maps.Equal(recs, w[d]) {
						t.Errorf("%s, %s: the picked layout's records for owner %d differ", tc.name, cat, d)
					}
				}
			}
		}
	}
}

// TestMergeBinaryThenGroups is the owner's side: the encoded tuples of
// two tables over halves of the rows, merged into a third, finalize to
// the key-sorted groups of one table over all the rows, bit for bit; a
// malformed record is sqlagg.ErrBadState and a nil table has no groups.
func TestMergeBinaryThenGroups(t *testing.T) {
	const rows = 6000
	plan := mustPlan(t, tupleSpecs())
	keys := workload.Keys(51, rows, 500)
	cols := [][]float64{workload.Values64(52, rows, workload.MixedMag), workload.Values64(53, rows, workload.Uniform12)}
	all := NewTable(plan, 500, 64)
	all.AddRows(keys, cols)
	want := all.Groups()

	merged := NewTable(plan, 16, 0) // under-hinted: grows while merging
	for _, half := range [][2]int{{0, rows / 2}, {rows / 2, rows}} {
		part := NewTable(plan, 500, 0)
		part.AddRows(keys[half[0]:half[1]], [][]float64{cols[0][half[0]:half[1]], cols[1][half[0]:half[1]]})
		part.ForEach(func(key uint32, tup *sqlagg.Tuple) {
			enc, err := plan.AppendBinary(nil, tup)
			if err == nil {
				err = merged.MergeBinary(key, enc)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	got := merged.Groups()
	if sorted := slices.IsSortedFunc(got, func(a, b Group) int { return cmp.Compare(a.Key, b.Key) }); len(got) != len(want) || !sorted {
		t.Fatalf("%d groups (key-sorted: %v), want %d key-sorted", len(got), sorted, len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || !slices.EqualFunc(got[i].Aggs, want[i].Aggs, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("group %d: %v, want %v", i, got[i], want[i])
		}
	}
	if err := merged.MergeBinary(1, []byte{1, 2, 3}); !errors.Is(err, sqlagg.ErrBadState) {
		t.Errorf("3-byte record: %v, want ErrBadState", err)
	}
	if gs := (*Table)(nil).Groups(); gs != nil {
		t.Errorf("nil table has %d groups", len(gs))
	}
}

// TestGroupsAggsDoNotOverlap: every group's Aggs is capped at its own
// values, so appending to one group's leaves the next group's alone.
func TestGroupsAggsDoNotOverlap(t *testing.T) {
	plan := mustPlan(t, tupleSpecs())
	table := NewTable(plan, 2, 0)
	table.AddRows([]uint32{1, 2}, [][]float64{{1.5, 2.5}, {-3, 4}})
	gs := table.Groups()
	if len(gs) != 2 {
		t.Fatalf("%d groups, want 2", len(gs))
	}
	next := slices.Clone(gs[1].Aggs)
	_ = append(gs[0].Aggs, 42)
	if !slices.EqualFunc(gs[1].Aggs, next, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("appending to group 0's Aggs changed group 1's: %v, was %v", gs[1].Aggs, next)
	}
}

// reference is the oracle of the table: one unbuffered tuple per key,
// fed one sqlagg.TuplePlan.AddRow per row, in row order.
func reference(plan *sqlagg.TuplePlan, keys []uint32, cols [][]float64) map[uint32]*sqlagg.Tuple {
	tuples := make(map[uint32]*sqlagg.Tuple)
	for i, k := range keys {
		tup := tuples[k]
		if tup == nil {
			tup = new(sqlagg.Tuple)
			*tup = plan.NewTuple(0)
			tuples[k] = tup
		}
		plan.AddRow(tup, cols, i)
	}
	return tuples
}

// rowByRow is reference's tuples encoded, key → AppendBinary's bytes.
func rowByRow(t testing.TB, plan *sqlagg.TuplePlan, keys []uint32, cols [][]float64) map[uint32]string {
	tuples := reference(plan, keys, cols)
	out := make(map[uint32]string, len(tuples))
	for k, tup := range tuples {
		enc, err := plan.AppendBinary(nil, tup)
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		out[k] = string(enc)
	}
	return out
}

// encoded is every tuple of table, key → AppendBinary's bytes.
func encoded(t testing.TB, plan *sqlagg.TuplePlan, table *Table) map[uint32]string {
	out := make(map[uint32]string, table.Len())
	table.ForEach(func(key uint32, tup *sqlagg.Tuple) {
		enc, err := plan.AppendBinary(nil, tup)
		if err != nil {
			t.Fatalf("key %d: %v", key, err)
		}
		out[key] = string(enc)
	})
	return out
}

// sameFold fails t unless AddRows over keys and cols, fed to a table
// in chunks of the given sizes (the rest in one call), leaves every
// key's tuple encoding to the bytes of rowByRow's.
func sameFold(t testing.TB, name string, plan *sqlagg.TuplePlan, hint, bsz int, keys []uint32, cols [][]float64, chunks ...int) {
	t.Helper()
	table := NewTable(plan, hint, bsz)
	for lo := 0; lo < len(keys); {
		hi := len(keys)
		if len(chunks) > 0 {
			hi, chunks = min(hi, lo+chunks[0]), chunks[1:]
		}
		part := make([][]float64, len(cols))
		for c := range cols {
			part[c] = cols[c][lo:hi]
		}
		table.AddRows(keys[lo:hi], part)
		lo = hi
	}
	if got, want := encoded(t, plan, table), rowByRow(t, plan, keys, cols); !maps.Equal(got, want) {
		t.Errorf("%s: AddRows leaves %d tuples, AddRow per row %d, or different bytes", name, len(got), len(want))
	}
}

// TestAddRowsMatchesAddRow: the batch fold leaves every tuple with the
// bytes one AddRow per row leaves, for unbuffered tuples and two buffer
// lengths; with a hint below the group count (the table grows inside a
// batch), two keys at bsz 32 (batches cut every few rows), row counts
// and call sizes that are not multiples of the batch, and a plan with
// Σx, Σx² (VAR_POP), COUNT and MIN/MAX fed NaN and ±0. On a warmed table
// AddRows allocates nothing.
func TestAddRowsMatchesAddRow(t *testing.T) {
	const rows = 3*batchRows + 77
	plan := mustPlan(t, tupleSpecs())
	cols := [][]float64{workload.Values64(61, rows, workload.MixedMag), workload.Values64(62, rows, workload.Uniform12)}
	classes := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), -0x1p990}
	for i := 0; i < rows; i += 5 {
		cols[i%2][i] = classes[(i/5)%len(classes)]
	}
	for _, tc := range []struct {
		name         string
		groups, hint int
	}{
		{"hinted", 300, 300},
		{"hinted below the group count", 300, 4},
		{"two keys", 2, 2},
		{"one key", 1, 1},
	} {
		keys := workload.Keys(63, rows, uint32(tc.groups))
		for _, bsz := range []int{0, 32, 1024} {
			for _, n := range []int{rows, batchRows, 1} {
				name := fmt.Sprintf("%s, bsz %d, %d rows", tc.name, bsz, n)
				sameFold(t, name, plan, tc.hint, bsz, keys[:n], cols)
				sameFold(t, name+" in uneven calls", plan, tc.hint, bsz, keys[:n], cols, 1, 3, batchRows+1, 100)
			}
		}
	}

	keys := workload.Keys(64, rows, 300)
	table := NewTable(plan, 300, 32)
	table.AddRows(keys, cols)
	if allocs := testing.AllocsPerRun(20, func() { table.AddRows(keys, cols) }); allocs != 0 {
		t.Errorf("AddRows on a warmed table: %v allocs, want 0", allocs)
	}
}

// sameGroups fails t unless table's Groups are the reference's tuples
// finalized, one per key, in ascending key order, bit for bit.
func sameGroups(t testing.TB, name string, plan *sqlagg.TuplePlan, table *Table, ref map[uint32]*sqlagg.Tuple) {
	t.Helper()
	gs := table.Groups()
	if len(gs) != len(ref) || table.Len() != len(ref) {
		t.Errorf("%s: %d groups (Len %d), want %d", name, len(gs), table.Len(), len(ref))
		return
	}
	for i, g := range gs {
		tup := ref[g.Key]
		if tup == nil || (i > 0 && gs[i-1].Key >= g.Key) {
			t.Errorf("%s: group %d has key %d: unknown or out of order", name, i, g.Key)
			return
		}
		want := plan.Finalize(nil, tup)
		if !slices.EqualFunc(g.Aggs, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("%s: key %d finalizes to %v, want %v", name, g.Key, g.Aggs, want)
			return
		}
	}
}

// part is keys and cols as one partition over [min, max] of the keys.
func part(keys []uint32, cols [][]float64) partition.Part[float64] {
	pt := partition.Part[float64]{Keys: keys, Cols: cols}
	if len(keys) > 0 {
		pt.Lo, pt.Hi = slices.Min(keys), slices.Max(keys)
	}
	return pt
}

// rowsOf is rows [lo, hi) of keys and cols.
func rowsOf(keys []uint32, cols [][]float64, lo, hi int) ([]uint32, [][]float64) {
	sub := make([][]float64, len(cols))
	for c := range cols {
		sub[c] = cols[c][lo:hi]
	}
	return keys[lo:hi], sub
}

// TestTupleTableMatrix holds the table to its oracle, one AddRow per
// row into an unbuffered sqlagg.Tuple per key, on AppendBinary's bytes
// and on Groups (key order included), across:
//   - plans: one SUM, Q1's, SUM + VAR_POP (a Σx² component), MIN/MAX
//     alone and beside sums, COUNT alone (no sums, so no buffers);
//   - key shapes: dense, one key, none, stride 256, based at 2^31, the
//     0xFFFFFFFF sentinel among dense keys, and keys spread wider than
//     any table;
//   - buffer lengths 0, 1 (a flush every row), 8, the planned one and
//     1024, whose arena passes agg.MaxArenaBytes at a few hundred groups
//     of a multi-sum plan, so later groups add to their states directly;
//   - entries: AddPart over the keys' range (direct where the range fits
//     the table, probed where it does not), AddRows in uneven calls into
//     a table hinted at one group (it grows inside AddRows), agg's
//     partition loop over depth-1 parts on one recycled table,
//     MergeBinary of one half's encoded tuples into a direct and into a
//     probed table of the other half, and Recycle of a table of another
//     plan, of another bsz and of the same plan and bsz.
func TestTupleTableMatrix(t *testing.T) {
	const rows, groups = 3000, 500
	cols := make([][]float64, 5)
	for c := range cols {
		cols[c] = workload.Values64(uint64(71+c), rows, []workload.ValueDist{workload.MixedMag, workload.Uniform12}[c%2])
	}
	classes := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0x1p990, -0x1p-1074}
	for i := 3; i < rows; i += 11 {
		cols[i%len(cols)][i] = classes[(i/11)%len(classes)]
	}
	dense := workload.Keys(73, rows, groups)
	shape := func(f func(i int, k uint32) uint32) []uint32 {
		keys := make([]uint32, rows)
		for i, k := range dense {
			keys[i] = f(i, k)
		}
		return keys
	}
	shapes := []struct {
		name string
		keys []uint32
	}{
		{"dense", dense},
		{"one key", shape(func(int, uint32) uint32 { return 7 })},
		{"no rows", nil},
		{"stride 256", shape(func(_ int, k uint32) uint32 { return k << 8 })},
		{"based 2^31", shape(func(_ int, k uint32) uint32 { return 1<<31 + k })},
		{"sentinel", shape(func(i int, k uint32) uint32 {
			if i%97 == 5 {
				return 0xFFFFFFFF
			}
			return k
		})},
		{"wider than the table", shape(func(_ int, k uint32) uint32 { return k * 2654435761 })},
	}
	plans := []struct {
		name  string
		specs []sqlagg.AggSpec
	}{
		{"sum", []sqlagg.AggSpec{{Kind: sqlagg.AggSum, Levels: levels, Col: 0}}},
		{"q1", q1Catalog(levels)},
		{"sum+var", []sqlagg.AggSpec{{Kind: sqlagg.AggSum, Levels: levels, Col: 2}, {Kind: sqlagg.AggVarPop, Levels: levels, Col: 2}}},
		{"min/max", []sqlagg.AggSpec{{Kind: sqlagg.AggMin, Col: 1}, {Kind: sqlagg.AggMax, Col: 3}}},
		{"mixed", tupleSpecs()},
		{"count", []sqlagg.AggSpec{{Kind: sqlagg.AggCount}}},
	}
	other := mustPlan(t, narrowCatalog(levels))
	for _, pc := range plans {
		plan := mustPlan(t, pc.specs)
		for _, sh := range shapes {
			keys, half := sh.keys, len(sh.keys)/2
			shCols := cols
			if keys == nil {
				shCols = make([][]float64, len(cols))
			}
			ref, want := reference(plan, keys, shCols), rowByRow(t, plan, keys, shCols)
			bound := len(ref)
			_, planned := Layout(plan, max(bound, 1), rows/max(bound, 1))
			for _, bsz := range []int{0, 1, 8, planned, 1024} {
				name := fmt.Sprintf("%s, %s, bsz %d", pc.name, sh.name, bsz)
				check := func(entry string, table *Table) {
					t.Helper()
					if got := encoded(t, plan, table); !maps.Equal(got, want) {
						t.Errorf("%s, %s: %d tuples, want %d, or different bytes", name, entry, len(got), len(want))
					}
					sameGroups(t, name+", "+entry, plan, table, ref)
				}

				direct := NewTable(plan, bound, bsz)
				direct.AddPart(part(keys, shCols))
				check("AddPart", direct)

				grown := NewTable(plan, 1, bsz)
				for lo, step := 0, 1; lo < len(keys); lo, step = lo+step, step*3+1 {
					k, c := rowsOf(keys, shCols, lo, min(len(keys), lo+step))
					grown.AddRows(k, c)
				}
				check("AddRows from hint 1", grown)

				var loop *Table
				r := make(records, 1)
				r[0] = make(map[uint32]string)
				agg.AggregateParts(partition.Recursive(keys, shCols, 1, agg.DefaultFanout, 1), 1,
					func(bound int) *Table { loop = Recycle(loop, plan, bound, bsz); return loop },
					(*Table).AddPart, r.sink(t, plan))
				if !maps.Equal(r[0], want) {
					t.Errorf("%s, partition loop: %d tuples, want %d, or different bytes", name, len(r[0]), len(want))
				}

				for _, into := range []string{"direct", "probed"} {
					k1, c1 := rowsOf(keys, shCols, 0, half)
					dst := NewTable(plan, bound, bsz)
					if into == "direct" {
						pt := part(k1, c1)
						pt.Lo, pt.Hi = part(keys, nil).Lo, part(keys, nil).Hi
						dst.AddPart(pt)
					} else {
						dst = NewTable(plan, 1, bsz)
						dst.AddRows(k1, c1)
					}
					src := NewTable(plan, bound, bsz)
					src.AddRows(rowsOf(keys, shCols, half, len(keys)))
					src.ForEach(func(key uint32, tup *sqlagg.Tuple) {
						enc, err := plan.AppendBinary(nil, tup)
						if err == nil {
							err = dst.MergeBinary(key, enc)
						}
						if err != nil {
							t.Fatalf("%s: merging key %d: %v", name, key, err)
						}
					})
					check("MergeBinary into a "+into+" table", dst)
				}

				for _, prev := range []*Table{NewTable(other, bound, 8), NewTable(plan, bound, bsz+1), NewTable(plan, bound, bsz)} {
					prev.AddRows(keys, shCols)
					table := Recycle(prev, plan, bound, bsz)
					if same := prev.plan == plan && prev.bsz == bsz; (table == prev) != same {
						t.Errorf("%s: Recycle of a table of plan %v bsz %d reused it: %v", name, prev.plan == plan, prev.bsz, table == prev)
					}
					table.AddPart(part(keys, shCols))
					check(fmt.Sprintf("Recycle(plan %v, bsz %d)", prev.plan == plan, prev.bsz), table)
				}
			}
		}
	}
}

// TestAddPartAllocations: AddPart on a warmed table allocates nothing,
// in direct mode (the part's range fits the table) and in probed mode
// (it does not), buffered and not; and a new table hinted at its part's
// groups is a handful of allocations (the table, its slots, states,
// counts and arena, and what a collection the large ones start may
// add), whatever their number.
func TestAddPartAllocations(t *testing.T) {
	const rows = 4 * batchRows
	plan := mustPlan(t, q1Catalog(levels))
	cols := make([][]float64, 5)
	for c := range cols {
		cols[c] = workload.Values64(uint64(75+c), rows, workload.MixedMag)
	}
	keys := workload.Keys(76, rows, 100)
	for mode, pt := range map[string]partition.Part[float64]{
		"direct": part(keys, cols),
		"probed": {Keys: keys, Cols: cols, Lo: 0, Hi: 0xFFFFFFFF},
	} {
		for _, bsz := range []int{0, 32} {
			table := NewTable(plan, 100, bsz)
			table.AddPart(pt)
			if allocs := testing.AllocsPerRun(20, func() { table.Clear(); table.AddPart(pt) }); allocs != 0 {
				t.Errorf("%s, bsz %d: AddPart on a warmed table: %v allocs, want 0", mode, bsz, allocs)
			}
		}
	}
	for _, groups := range []uint32{100, 1 << 12} {
		keys := workload.Keys(77, rows, groups)
		pt := part(keys, cols)
		if allocs := testing.AllocsPerRun(5, func() { NewTable(plan, pt.Bound(), 32).AddPart(pt) }); allocs > 8 {
			t.Errorf("%d groups: a new table and its part: %v allocs, want at most 8", groups, allocs)
		}
	}
}

// FuzzTupleFold holds the table to one AddRow per row on fuzzed keys,
// values, buffer lengths, table hints and part ranges: byte 0 picks bsz
// (0 to 64, so 1 — a flush every row — too), byte 1 the hint, byte 2
// how far the range of the part AddPart is given reaches past the
// keys' (its low nibble below, its high nibble ×16 above, so that the
// range fits the table or not: direct or probed), and every three
// bytes after them are one row: its key and the bytes its two values
// are made of, special values among them. The rows are folded once
// through AddRows, once through AddPart, and once sorted by key, each
// key's run by TuplePlan.AddRun, given the run's extents, into a tuple
// of bsz-value buffers.
func FuzzTupleFold(f *testing.F) {
	f.Add([]byte{32, 1, 0, 0, 1, 2, 1, 3, 4, 0, 5, 6})
	f.Add([]byte{1, 0, 0x31, 7, 200, 9, 7, 129, 3, 8, 130, 4})
	f.Add(append([]byte{16, 2, 0xF0}, slices.Repeat([]byte{3, 64, 65, 4, 66, 67}, 200)...))
	f.Add(append([]byte{0, 0, 0x0F}, slices.Repeat([]byte{1, 2, 3, 250, 133, 140}, 100)...))
	plan := mustPlan(f, tupleSpecs())
	classes := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 0x1p1000, -0x1p-1074}
	value := func(a, b byte) float64 {
		if a >= 0xF0 {
			return classes[int(b)%len(classes)]
		}
		return math.Ldexp(float64(int8(b)), int(a)-120)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		bsz, hint, reach := int(data[0])%65, int(data[1])%64, data[2]
		data = data[3:]
		rows := min(len(data)/3, 4096)
		keys := make([]uint32, rows)
		cols := [][]float64{make([]float64, rows), make([]float64, rows)}
		for i := range keys {
			r := data[3*i : 3*i+3]
			keys[i] = uint32(r[0])
			cols[0][i], cols[1][i] = value(r[1], r[2]), value(r[2], r[1])
		}
		name := fmt.Sprintf("bsz %d, hint %d, %d rows", bsz, hint, rows)
		sameFold(t, name, plan, hint, bsz, keys, cols)
		pt := part(keys, cols)
		pt.Lo -= min(pt.Lo, uint32(reach&0x0F))
		pt.Hi += uint32(reach>>4) << 4
		table := NewTable(plan, hint, bsz)
		table.AddPart(pt)
		ref, want := reference(plan, keys, cols), rowByRow(t, plan, keys, cols)
		if got := encoded(t, plan, table); !maps.Equal(got, want) {
			t.Errorf("%s, part [%d, %d]: AddPart leaves %d tuples, AddRow per row %d, or different bytes", name, pt.Lo, pt.Hi, len(got), len(want))
		}
		sameGroups(t, fmt.Sprintf("%s, part [%d, %d]", name, pt.Lo, pt.Hi), plan, table, ref)
		if got := byRuns(t, plan, bsz, keys, cols); !maps.Equal(got, want) {
			t.Errorf("%s: AddRun over the key-sorted runs leaves %d tuples, AddRow per row %d, or different bytes", name, len(got), len(want))
		}
	})
}

// byRuns sorts the rows by key and folds each key's run into one tuple
// with bsz-value buffers, reset between runs, by one AddRun with the
// run's extents: key → AppendBinary's bytes.
func byRuns(t testing.TB, plan *sqlagg.TuplePlan, bsz int, keys []uint32, cols [][]float64) map[uint32]string {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	sorted := make([][]float64, len(cols))
	for c, col := range cols {
		sorted[c] = make([]float64, len(order))
		for i, row := range order {
			sorted[c][i] = col[row]
		}
	}
	out := make(map[uint32]string)
	tup := plan.NewTuple(bsz)
	for lo, hi := 0, 0; lo < len(order); lo = hi {
		key := keys[order[lo]]
		for hi = lo + 1; hi < len(order) && keys[order[hi]] == key; hi++ {
		}
		plan.Reset(&tup)
		plan.AddRun(&tup, sorted, sqlagg.AppendExtents(nil, sorted, lo, hi), lo, hi)
		enc, err := plan.AppendBinary(nil, &tup)
		if err != nil {
			t.Fatalf("key %d: %v", key, err)
		}
		out[key] = string(enc)
	}
	return out
}

// TestDeal: row i lands in shard i mod n, in order; more shards than
// rows leaves the rest empty.
func TestDeal(t *testing.T) {
	const rows = 11
	keys := make([]uint32, rows)
	cols := [][]float64{make([]float64, rows), make([]float64, rows)}
	for i := range keys {
		keys[i], cols[0][i], cols[1][i] = uint32(i), float64(i), float64(-i)
	}
	for _, n := range []int{1, 3, rows, rows + 2} {
		sk, sc := Deal(keys, cols, n)
		if len(sk) != n || len(sc) != n {
			t.Fatalf("n=%d: %d key shards, %d column shards", n, len(sk), len(sc))
		}
		for s := range sk {
			if want := (rows + n - 1 - s) / n; len(sk[s]) != want || len(sc[s]) != len(cols) || len(sc[s][1]) != want {
				t.Fatalf("n=%d shard %d: %d keys in %d columns of %d, want %d keys in %d", n, s, len(sk[s]), len(sc[s]), len(sc[s][1]), want, len(cols))
			}
			for j, k := range sk[s] {
				if i := j*n + s; k != keys[i] || sc[s][0][j] != cols[0][i] || sc[s][1][j] != cols[1][i] {
					t.Fatalf("n=%d shard %d row %d: key %d, values %v %v, want row %d", n, s, j, k, sc[s][0][j], sc[s][1][j], i)
				}
			}
		}
	}

	// Shards are sized up front: Deal allocates the rows it returns and
	// little else (appending them row by row allocated 3.75 times
	// their bytes at this shape).
	const big, ncols, n = 1 << 16, 8, 4
	keys = make([]uint32, big)
	cols = make([][]float64, ncols)
	for c := range cols {
		cols[c] = make([]float64, big)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Deal(keys, cols, n)
	runtime.ReadMemStats(&after)
	out := uint64(big * (4 + 8*ncols))
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > out*11/10 {
		t.Errorf("Deal of %d rows × %d columns into %d shards allocated %d bytes for %d bytes of shards, limit 1.1×",
			big, ncols, n, alloc, out)
	}
}

// BenchmarkTupleCombine re-derives the model's two decisions on one
// 2^19-row shard, for the Q1 catalog (5 sums + count) and a narrow one
// (1 sum + count): where buffering the physical tuple stops paying (the
// buffer size Layout plans against buffers forced off) and where
// partitioning starts to (one table over the rows as they lie against
// radix partitioning — timed, it is part of the choice — and a table
// per partition; the whole layout is skipped once its table is past
// four times what Layout allows). Every tuple is encoded, as the
// combiner's sink does. ns/row is the figure to compare; the
// sub-benchmark name carries the layout and the bsz, and "picked" marks
// the layout Layout picks at that group count.
//
//	go test ./internal/groupby -run '^$' -bench TupleCombine -benchtime 5x
func BenchmarkTupleCombine(b *testing.B) {
	const rows = 1 << 19
	cols := make([][]float64, 5)
	for c := range cols {
		cols[c] = workload.Values64(uint64(90+c), rows, workload.MixedMag)
	}
	for _, cat := range []struct {
		name  string
		specs []sqlagg.AggSpec
	}{{"q1", q1Catalog(levels)}, {"sum-avg-count", narrowCatalog(levels)}} {
		plan := mustPlan(b, cat.specs)
		var frame []byte
		var encErr error
		encode := func(_ int, table *Table) {
			table.ForEach(func(_ uint32, tup *sqlagg.Tuple) {
				if encErr == nil {
					frame, encErr = plan.AppendBinary(frame, tup)
				}
			})
		}
		read := readColumns(plan, cols)
		for _, groups := range []int{4, 1 << 9, 1 << 10, 1 << 12, 1 << 16} {
			keys := workload.Keys(89, rows, uint32(groups))
			bound := partition.Recursive(keys, read, 0, agg.DefaultFanout, 1)[0].Bound()
			maxBound, sumBound := 0, 0
			for _, pt := range partition.Recursive(keys, read, 1, agg.DefaultFanout, 1) {
				maxBound, sumBound = max(maxBound, pt.Bound()), sumBound+pt.Bound()
			}
			split, wholeBsz := Layout(plan, bound, rows/bound)
			_, partBsz := Layout(plan, maxBound, rows/sumBound)
			for _, layout := range []struct {
				name    string
				planned int
				combine func(bsz int)
			}{
				{"whole", wholeBsz, func(bsz int) {
					table := NewTable(plan, bound, bsz)
					table.AddRows(keys, cols)
					encode(0, table)
				}},
				{"partitioned", partBsz, func(bsz int) {
					aggregate(plan, partition.Recursive(keys, read, 1, agg.DefaultFanout, 1), bsz, 1, encode)
				}},
			} {
				picked := split == (layout.name == "partitioned")
				if tooBig, _ := Layout(plan, bound/4, 1); !picked && tooBig {
					continue
				}
				cells := []int{layout.planned}
				if layout.planned != 0 && picked {
					cells = append(cells, 0) // the plan buffers: also run it forced off
				}
				for _, bsz := range cells {
					name := fmt.Sprintf("%s/groups=%d/%s/bsz=%d", cat.name, groups, layout.name, bsz)
					if picked {
						name += "/picked"
					}
					b.Run(name, func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							frame = frame[:0]
							if layout.combine(bsz); encErr != nil {
								b.Fatal(encErr)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
					})
				}
			}
		}
	}
}
