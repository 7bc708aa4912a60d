package dist

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/groupby"
	"repro/internal/partition"
	"repro/internal/sqlagg"
	"repro/internal/workload"
)

// Tests of the multi-aggregate (spec-tagged tuple) GROUP BY plane.

// tupleSpecs is the catalog the tuple tests run: a mix of state shapes
// (rsum-backed SUM/AVG/VAR, the 8-byte COUNT, the 9-byte MIN/MAX) over
// two value columns.
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

// dealRowsCols distributes keyed two-column rows round-robin.
func dealRowsCols(keys []uint32, c0, c1 []float64, nodes int) ([][]uint32, [][][]float64) {
	lk := make([][]uint32, nodes)
	lc := make([][][]float64, nodes)
	for i := range lc {
		lc[i] = make([][]float64, 2)
	}
	for i := range keys {
		d := i % nodes
		lk[d] = append(lk[d], keys[i])
		lc[d][0] = append(lc[d][0], c0[i])
		lc[d][1] = append(lc[d][1], c1[i])
	}
	return lk, lc
}

// refTuples computes the ground truth: one sequential state tuple per
// key, in row order, finalized to bits.
func refTuples(t *testing.T, keys []uint32, c0, c1 []float64, specs []sqlagg.AggSpec) map[uint32][]uint64 {
	t.Helper()
	cols := [][]float64{c0, c1}
	states := make(map[uint32][]sqlagg.AggState)
	for i, k := range keys {
		tup, ok := states[k]
		if !ok {
			var err error
			tup, err = sqlagg.NewStates(specs)
			if err != nil {
				t.Fatal(err)
			}
			states[k] = tup
		}
		for s, sp := range specs {
			tup[s].Add(cols[sp.Col][i])
		}
	}
	out := make(map[uint32][]uint64, len(states))
	for k, tup := range states {
		bits := make([]uint64, len(tup))
		for s, st := range tup {
			bits[s] = math.Float64bits(st.Value())
		}
		out[k] = bits
	}
	return out
}

func checkTuples(t *testing.T, out []TupleGroup, want map[uint32][]uint64, label string) {
	t.Helper()
	if len(out) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(out), len(want))
	}
	prev := int64(-1)
	for _, g := range out {
		if int64(g.Key) <= prev {
			t.Fatalf("%s: result not sorted by key at %d", label, g.Key)
		}
		prev = int64(g.Key)
		bits, ok := want[g.Key]
		if !ok {
			t.Fatalf("%s: unexpected key %d", label, g.Key)
		}
		for s, w := range bits {
			if math.Float64bits(g.Aggs[s]) != w {
				t.Fatalf("%s: key %d spec %d: %016x, want %016x",
					label, g.Key, s, math.Float64bits(g.Aggs[s]), w)
			}
		}
	}
}

// TestAggregateTuplesBitReproducible: the multi-aggregate GROUP BY
// matches a sequential per-key reference bit for bit, across cluster
// sizes, worker counts, both transports, forced multi-chunk shuffle
// streams, and an injected fault plan.
func TestAggregateTuplesBitReproducible(t *testing.T) {
	const n = 20000
	keys := workload.Keys(18, n, 300)
	c0 := workload.Values64(19, n, workload.MixedMag)
	c1 := workload.Values64(23, n, workload.MixedMag)
	specs := tupleSpecs()
	want := refTuples(t, keys, c0, c1, specs)

	for _, nodes := range []int{1, 3, 5} {
		lk, lc := dealRowsCols(keys, c0, c1, nodes)
		out, err := AggregateTuples(lk, lc, 2, specs)
		if err != nil {
			t.Fatalf("AggregateTuples(%d nodes): %v", nodes, err)
		}
		checkTuples(t, out, want, "chan")

		cfg := Config{
			NewTransport:    TCPTransportFactory,
			MaxChunkPayload: 4096,
			Faults:          &FaultPlan{Seed: 7, DropProb: 0.05, MaxDrops: 20, DupProb: 0.05, Reorder: true},
		}
		out, err = AggregateTuplesConfig(lk, lc, 3, specs, cfg)
		if err != nil {
			t.Fatalf("AggregateTuplesConfig(tcp, %d nodes): %v", nodes, err)
		}
		checkTuples(t, out, want, "tcp+faults+chunks")
	}
}

// TestAggregateTuplesSingleSumMatchesByKey: a single-SUM catalog is the
// same protocol AggregateByKey runs — identical groups, identical bits.
func TestAggregateTuplesSingleSumMatchesByKey(t *testing.T) {
	const n = 8000
	keys := workload.Keys(31, n, 200)
	vals := workload.Values64(37, n, workload.MixedMag)
	lk, lv := dealRows(keys, vals, 3)
	want, err := AggregateByKey(lk, lv, 2)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][][]float64, len(lv))
	for i, v := range lv {
		cols[i] = [][]float64{v}
	}
	got, err := AggregateTuples(lk, cols, 2, sumSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key ||
			math.Float64bits(got[i].Aggs[0]) != math.Float64bits(want[i].Sum) {
			t.Fatalf("group %d: (%d, %016x), want (%d, %016x)", i,
				got[i].Key, math.Float64bits(got[i].Aggs[0]),
				want[i].Key, math.Float64bits(want[i].Sum))
		}
	}
}

// TestValidateShardColumns covers the shard-shape contract: every
// column a spec reads must exist and match the key count, except on
// empty shards, which may omit columns entirely.
func TestValidateShardColumns(t *testing.T) {
	specs := []sqlagg.AggSpec{
		{Kind: sqlagg.AggSum, Levels: levels, Col: 0},
		{Kind: sqlagg.AggAvg, Levels: levels, Col: 2},
	}
	ok := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	if err := ValidateShardColumns([][]uint32{{1, 2}}, [][][]float64{ok}, specs); err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
	// Empty shard with no columns at all is fine.
	if err := ValidateShardColumns([][]uint32{nil}, [][][]float64{nil}, specs); err != nil {
		t.Fatalf("empty shard rejected: %v", err)
	}
	cases := []struct {
		name string
		keys [][]uint32
		cols [][][]float64
		sp   []sqlagg.AggSpec
	}{
		{"no specs", [][]uint32{{1}}, [][][]float64{{{1}}}, nil},
		{"bad spec", [][]uint32{{1}}, [][][]float64{{{1}}},
			[]sqlagg.AggSpec{{Kind: 0, Col: 0}}},
		{"negative col", [][]uint32{{1}}, [][][]float64{{{1}}},
			[]sqlagg.AggSpec{{Kind: sqlagg.AggSum, Col: -1}}},
		{"missing column", [][]uint32{{1, 2}}, [][][]float64{{{1, 2}}}, specs},
		{"short column", [][]uint32{{1, 2}}, [][][]float64{{{1, 2}, {3}, {4, 5}}}, specs},
		{"long column", [][]uint32{{1, 2}}, [][][]float64{{{1, 2}, {3, 4, 9}, {4, 5}}}, specs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateShardColumns(tc.keys, tc.cols, tc.sp); err == nil {
				t.Errorf("accepted")
			}
		})
	}

	// The operator surfaces the same failures as ErrShardMismatch or
	// spec errors before any node spawns.
	if _, err := AggregateTuples([][]uint32{{1, 2}}, [][][]float64{{{1, 2}}}, 1, specs); err == nil {
		t.Error("AggregateTuples accepted a shard missing a bound column")
	}
	if _, err := AggregateTuples(nil, nil, 1, specs); !errors.Is(err, ErrNoShards) {
		t.Errorf("no shards: %v, want ErrNoShards", err)
	}
	if _, err := AggregateTuples([][]uint32{{1}}, nil, 1, specs); !errors.Is(err, ErrShardMismatch) {
		t.Errorf("shard count mismatch: %v, want ErrShardMismatch", err)
	}
	if _, err := AggregateTuples([][]uint32{{1}}, [][][]float64{{{1}, {1}, {1}}}, 0, specs); !errors.Is(err, ErrWorkers) {
		t.Errorf("workers=0: %v, want ErrWorkers", err)
	}
}

// TestTupleGroupsCodec pins the exported gather codec: round trip,
// the single-spec frame bytes, and strict length validation.
func TestTupleGroupsCodec(t *testing.T) {
	gs := []TupleGroup{
		{Key: 3, Aggs: []float64{1.5, -2.25, 8}},
		{Key: 9, Aggs: []float64{math.Inf(1), 0, -0.0}},
	}
	buf := EncodeTupleGroups(gs, 3)
	back, err := DecodeTupleGroups(buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Key != 3 || back[1].Key != 9 {
		t.Fatalf("round trip: %+v", back)
	}
	for i := range gs {
		for s := range gs[i].Aggs {
			if math.Float64bits(back[i].Aggs[s]) != math.Float64bits(gs[i].Aggs[s]) {
				t.Fatalf("value %d/%d changed in flight", i, s)
			}
		}
	}
	// The single-SUM gather frame is golden: little-endian key, then
	// the float64 bits of 42.5 (0x4045400000000000).
	single := []TupleGroup{{Key: 7, Aggs: []float64{42.5}}}
	golden := []byte{7, 0, 0, 0, 0, 0, 0, 0, 0, 0x40, 0x45, 0x40}
	if got := EncodeTupleGroups(single, 1); !bytes.Equal(got, golden) {
		t.Fatalf("single-spec gather frame = % x, want % x", got, golden)
	}
	if _, err := DecodeTupleGroups(buf[:len(buf)-1], 3); err == nil {
		t.Error("ragged payload accepted")
	}
	if _, err := DecodeTupleGroups(buf, 0); err == nil {
		t.Error("nspecs=0 accepted")
	}
	if _, err := DecodeTupleGroups(buf, 2); err == nil {
		t.Error("wrong spec arity accepted")
	}
}

// TestPartitionedTablesSameGroups pins that the partitioning changes
// where groups are folded, never what they hold or their order:
// combineShard → owner merge, agg's partition loop over the shard's
// key-range partitions (one table recycled across them, runs
// concatenated unsorted) and one table over all rows return the same
// key-sorted TupleGroups as the sequential reference, whatever the key
// layout.
func TestPartitionedTablesSameGroups(t *testing.T) {
	const rows = 6000
	specs := tupleSpecs()
	plan, err := sqlagg.NewTuplePlan(specs)
	if err != nil {
		t.Fatal(err)
	}
	c0 := workload.Values64(31, rows, workload.MixedMag)
	c1 := workload.Values64(32, rows, workload.Uniform12)
	dense := workload.Keys(33, rows, 3000)
	for _, tc := range []struct {
		name string
		key  func(k uint32) uint32
	}{
		{"dense", func(k uint32) uint32 { return k }},
		{"one partition", func(k uint32) uint32 { return k<<8 | 5 }},
		{"high bits only", func(k uint32) uint32 { return k << 20 }},
		{"sparse", func(k uint32) uint32 { return k * 2654435761 }},
	} {
		keys := make([]uint32, rows)
		for i, k := range dense {
			keys[i] = tc.key(k)
		}
		cols := [][]float64{c0, c1}
		want := refTuples(t, keys, c0, c1, specs)

		// Hinted below the true group count: the table grows mid-batch.
		_, bsz := groupby.Layout(plan, 64, rows/64)
		whole := groupby.NewTable(plan, 64, bsz)
		whole.AddRows(keys, cols)
		checkTuples(t, whole.Groups(), want, tc.name+": one table, no partition bits")

		// One table for every partition, as a serving worker keeps it:
		// sized for the largest, cleared and recycled in between, with
		// summation buffers (where they fit) by the claimed rows per key.
		parts := partition.Recursive(keys, cols, 1, agg.DefaultFanout, 2)
		maxBound := 0
		for _, pt := range parts {
			maxBound = max(maxBound, pt.Bound())
		}
		_, bsz = groupby.Layout(plan, maxBound, 64)
		var ranged []TupleGroup
		agg.AggregateParts(parts, 1, func(bound int) *groupby.Table { return groupby.NewTable(plan, bound, bsz) },
			(*groupby.Table).AddPart, func(_ int, table *groupby.Table) { ranged = append(ranged, table.Groups()...) })
		checkTuples(t, ranged, want, tc.name+": a table per key-range partition")

		for _, nodes := range []int{1, 3} {
			frames, err := combineShard(keys, cols, plan, nodes, 2, new(NodeMemory))
			if err != nil {
				t.Fatal(err)
			}
			runs := make([][]TupleGroup, nodes)
			for d, frame := range frames {
				owner := ownerMerge{plan: plan, senders: 1, mem: new(NodeMemory)}
				if err := owner.merge(frame); err != nil {
					t.Fatalf("%s: owner %d: %v", tc.name, d, err)
				}
				runs[d] = owner.table.Groups()
			}
			checkTuples(t, mergeSortedRuns(runs), want, tc.name+": combineShard → owner merge")
		}
	}
}

// TestOwnerMergeTableDoesNotGrow: the owner's merge table is sized when
// the first non-empty shuffle message completes — its record count ×
// the sender count — so merging like-sized shards never rehashes (the
// fixed 64-slot start rehashed ten times at 2^15 keys, copying every
// tuple each time).
func TestOwnerMergeTableDoesNotGrow(t *testing.T) {
	const nodes, groups, rows = 2, 1 << 13, 1 << 15
	specs := tupleSpecs()
	plan, err := sqlagg.NewTuplePlan(specs)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][][]byte, nodes) // [sender][owner]
	for s := range frames {
		keys := workload.Keys(uint64(50+s), rows, groups)
		cols := [][]float64{
			workload.Values64(uint64(60+s), rows, workload.MixedMag),
			workload.Values64(uint64(70+s), rows, workload.Uniform12),
		}
		if frames[s], err = combineShard(keys, cols, plan, nodes, 1, new(NodeMemory)); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < nodes; d++ {
		owner := ownerMerge{plan: plan, senders: nodes, mem: new(NodeMemory)}
		// A sender without rows for this owner says nothing about size.
		if err := owner.merge(nil); err != nil || owner.table != nil {
			t.Fatalf("owner %d: empty message: err %v, table sized %v", d, err, owner.table != nil)
		}
		if err := owner.merge(frames[0][d]); err != nil {
			t.Fatal(err)
		}
		sized := owner.table.Cap()
		if err := owner.merge(frames[1][d]); err != nil {
			t.Fatal(err)
		}
		if owner.table.Cap() != sized {
			t.Errorf("owner %d: table grew from %d to %d slots for %d keys", d, sized, owner.table.Cap(), owner.table.Len())
		}
		if owner.table.Len() < groups/nodes*9/10 {
			t.Errorf("owner %d holds %d keys, expected about %d", d, owner.table.Len(), groups/nodes)
		}
	}
}
