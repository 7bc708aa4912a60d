package groupby

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sqlagg"
	"repro/internal/workload"
)

const (
	levels = core.DefaultLevels
	fanout = 256 // the radix fan-out dist shuffles on and serve loads at
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
	// (cluster_shuffle).
	for _, tc := range []struct {
		name  string
		specs []sqlagg.AggSpec
		fits  int // the most groups one table holds
	}{
		{"Q1 catalog, 696-byte tuples", q1Catalog(levels), 753},
		{"narrow catalog, 216-byte tuples", narrowCatalog(levels), 2427},
	} {
		plan := mustPlan(t, tc.specs)
		for groups, want := range map[int]bool{4: false, tc.fits: false, tc.fits + 1: true, 1 << 16: true} {
			if got, _ := Layout(plan, groups, 1<<20/groups); got != want {
				t.Errorf("%s: partition at %d groups = %v, want %v", tc.name, groups, got, want)
			}
		}
	}
}

// TestPartitionShardCarriesReadColumns: partitioning a shard moves
// every column the plan reads — and only those — with the keys, row for
// row, whatever the worker count; a plan that reads no column still
// gets its keys partitioned.
func TestPartitionShardCarriesReadColumns(t *testing.T) {
	const rows, ncols = 5000, 3
	// Row r carries r*ncols+c in column c, so a partitioned value names
	// the source row it came from.
	cols := make([][]float64, ncols)
	for c := range cols {
		cols[c] = make([]float64, rows)
		for r := range cols[c] {
			cols[c][r] = float64(r*ncols + c)
		}
	}
	keys := workload.Keys(77, rows, 1<<12)
	distinct := make(map[uint32]bool)
	for _, k := range keys {
		distinct[k] = true
	}
	sum := func(c int) sqlagg.AggSpec { return sqlagg.AggSpec{Kind: sqlagg.AggSum, Levels: levels, Col: c} }
	for _, tc := range []struct {
		name  string
		specs []sqlagg.AggSpec
		read  []int
	}{
		{"two of three", []sqlagg.AggSpec{sum(0), sum(2)}, []int{0, 2}},
		{"all three", []sqlagg.AggSpec{sum(1), {Kind: sqlagg.AggMin, Col: 0}, {Kind: sqlagg.AggAvg, Levels: levels, Col: 2}}, []int{0, 1, 2}},
		{"one, twice", []sqlagg.AggSpec{sum(1), {Kind: sqlagg.AggAvg, Levels: levels, Col: 1}}, []int{1}},
		{"COUNT only", []sqlagg.AggSpec{{Kind: sqlagg.AggCount}}, nil},
	} {
		plan := mustPlan(t, tc.specs)
		for _, workers := range []int{1, 3} {
			sh := Partition(keys, cols, plan.Reads, fanout, workers)
			if len(sh.Keys) != rows || sh.Off[len(sh.Off)-1] != rows || sh.SumBound < len(distinct) {
				t.Fatalf("%s: %d keys, offsets end at %d, bounds sum to %d for %d distinct keys", tc.name, len(sh.Keys), sh.Off[len(sh.Off)-1], sh.SumBound, len(distinct))
			}
			for c := range cols {
				if want := slices.Contains(tc.read, c); (sh.Cols[c] != nil) != want {
					t.Errorf("%s: column %d partitioned = %v, want %v", tc.name, c, sh.Cols[c] != nil, want)
				}
			}
			for i := range sh.Keys {
				if p := sort.SearchInts(sh.Off, i+1) - 1; sh.Keys[i]%fanout != uint32(p) {
					t.Fatalf("%s: key %d at position %d of partition %d", tc.name, sh.Keys[i], i, p)
				}
				if len(tc.read) == 0 {
					continue
				}
				r := int(sh.Cols[tc.read[0]][i]) / ncols
				if sh.Keys[i] != keys[r] {
					t.Fatalf("%s, %d workers: position %d holds key %d beside a value of row %d (key %d)", tc.name, workers, i, sh.Keys[i], r, keys[r])
				}
				for _, c := range tc.read {
					if got := sh.Cols[c][i]; got != cols[c][r] {
						t.Fatalf("%s, %d workers: position %d column %d holds %v, row %d has %v", tc.name, workers, i, c, got, r, cols[c][r])
					}
				}
			}
		}
	}
}

// records is what an entry of the executor hands on, as dist's combiner
// ships it: records[d][key] is key's encoded tuple, d the key's owner
// among len(records) nodes.
type records []map[uint32]string

// sink returns an Each sink (safe for any worker count) that encodes
// every tuple of a table into its owner's records and fails on a key
// seen before, so the maps hold the multiset of records.
func (r records) sink(plan *sqlagg.TuplePlan) func(int, *Table) error {
	var mu sync.Mutex
	return func(_ int, table *Table) error {
		mu.Lock()
		defer mu.Unlock()
		var err error
		table.ForEach(func(key uint32, tup *sqlagg.Tuple) {
			enc, e := plan.AppendBinary(nil, tup)
			d := int(key%fanout) % len(r)
			if _, dup := r[d][key]; dup || e != nil {
				err = fmt.Errorf("key %d: second record %v, encode error %v", key, dup, e)
			}
			r[d][key] = string(enc)
		})
		return err
	}
}

// TestCombineLayoutsSameRecords: the executor's three entries — one
// table over the rows as they lie, the partition loop over rows
// partitioned on the fly with the columns the plan reads (dist's
// combiner either way), and the loop over a resident Parts that carries
// every column (serve's) — produce byte-identical ⟨key, tuple⟩ records
// for the same owners (in an order of their own), with buffers and
// without, for every loop worker count — so which of them runs is a
// matter of cache footprint and of where the rows are only. KeyBound,
// which Layout is asked with, never undercounts.
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
	for _, tc := range []struct {
		name   string
		groups uint32
		key    func(k uint32) uint32
		bound  int
		cols   [][]float64
	}{
		{"4 dense", 4, func(k uint32) uint32 { return k }, 4, cols},
		{"700 dense", 700, func(k uint32) uint32 { return k + 1000 }, 700, cols},
		{"one partition", 300, func(k uint32) uint32 { return k<<8 | 5 }, 299<<8 + 1, cols},
		{"sparse", 3000, func(k uint32) uint32 { return k * 2654435761 }, rows, cols},
		{"special values", 900, func(k uint32) uint32 { return k }, 900, special},
	} {
		keys := workload.Keys(83, rows, tc.groups)
		distinct := make(map[uint32]bool)
		for i, k := range keys {
			keys[i] = tc.key(k)
			distinct[keys[i]] = true
		}
		bound := KeyBound(keys)
		if bound < len(distinct) || bound > tc.bound {
			t.Errorf("%s: keyBound %d for %d distinct keys, want at most %d", tc.name, bound, len(distinct), tc.bound)
		}
		resident := Partition(keys, tc.cols, func(int) bool { return true }, fanout, 3)
		for cat, specs := range map[string][]sqlagg.AggSpec{"mixed": tupleSpecs(), "q1": q1Catalog(levels), "narrow": narrowCatalog(levels)} {
			plan := mustPlan(t, specs)
			onTheFly := Partition(keys, tc.cols, plan.Reads, fanout, 2)
			run := func(fill func(sink func(int, *Table) error) error) records {
				r := make(records, nodes)
				for d := range r {
					r[d] = make(map[uint32]string)
				}
				if err := fill(r.sink(plan)); err != nil {
					t.Fatalf("%s, %s: %v", tc.name, cat, err)
				}
				return r
			}
			whole := func(bsz int) records {
				return run(func(sink func(int, *Table) error) error {
					table := NewTable(plan, bound, 0, bsz)
					table.AddRows(keys, tc.cols)
					return sink(0, table)
				})
			}
			for _, bsz := range []int{0, 64} {
				w := whole(bsz)
				for _, workers := range []int{1, 3, 8} {
					for entry, ps := range map[string]*Parts{"on the fly": onTheFly, "resident": resident} {
						p := run(func(sink func(int, *Table) error) error { return ps.Each(plan, bsz, workers, sink) })
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
				// What dist's combiner does with the model's answers.
				var picked records
				if partition, planned := Layout(plan, bound, rows/bound); !partition {
					picked = whole(planned)
				} else {
					_, planned = Layout(plan, onTheFly.MaxBound, rows/onTheFly.SumBound)
					picked = run(func(sink func(int, *Table) error) error { return onTheFly.Each(plan, planned, 1, sink) })
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
	all := NewTable(plan, 500, 0, 64)
	all.AddRows(keys, cols)
	want := all.Groups()

	merged := NewTable(plan, 16, 0, 0) // under-hinted: grows while merging
	for _, half := range [][2]int{{0, rows / 2}, {rows / 2, rows}} {
		part := NewTable(plan, 500, 0, 0)
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

// TestEachStopsAtSinkError: a failing sink ends the loop with its
// error; with one worker no later partition is visited.
func TestEachStopsAtSinkError(t *testing.T) {
	keys := workload.Keys(5, 4000, 1<<10)
	plan := mustPlan(t, narrowCatalog(levels))
	ps := Partition(keys, [][]float64{workload.Values64(6, len(keys), workload.MixedMag)}, plan.Reads, fanout, 1)
	boom := errors.New("boom")
	var seen []int
	err := ps.Each(plan, 0, 1, func(p int, _ *Table) error {
		if seen = append(seen, p); p == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || len(seen) != 8 || !sort.IntsAreSorted(seen) {
		t.Fatalf("err %v after partitions %v, want boom after 0..7 in order", err, seen)
	}
	if err := ps.Each(plan, 0, 4, func(int, *Table) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("4 workers: err %v, want boom", err)
	}
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
		encode := func(_ int, table *Table) (err error) {
			table.ForEach(func(_ uint32, tup *sqlagg.Tuple) {
				if err == nil {
					frame, err = plan.AppendBinary(frame, tup)
				}
			})
			return err
		}
		for _, groups := range []int{4, 1 << 9, 1 << 10, 1 << 12, 1 << 16} {
			keys := workload.Keys(89, rows, uint32(groups))
			bound := KeyBound(keys)
			ps := Partition(keys, cols, plan.Reads, fanout, 1)
			partition, wholeBsz := Layout(plan, bound, rows/bound)
			_, partBsz := Layout(plan, ps.MaxBound, rows/ps.SumBound)
			for _, layout := range []struct {
				name    string
				planned int
				combine func(bsz int) error
			}{
				{"whole", wholeBsz, func(bsz int) error {
					table := NewTable(plan, bound, 0, bsz)
					table.AddRows(keys, cols)
					return encode(0, table)
				}},
				{"partitioned", partBsz, func(bsz int) error {
					return Partition(keys, cols, plan.Reads, fanout, 1).Each(plan, bsz, 1, encode)
				}},
			} {
				picked := partition == (layout.name == "partitioned")
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
							if err := layout.combine(bsz); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
					})
				}
			}
		}
	}
}
