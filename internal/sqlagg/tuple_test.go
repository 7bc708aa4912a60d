package sqlagg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rsum"
	"repro/internal/workload"
)

// q1Catalog is TPC-H Q1's aggregate list (tpch.Q1Specs, which this
// package cannot import): 4×SUM + 3×AVG + COUNT over five columns.
func q1Catalog(levels int) []AggSpec {
	return []AggSpec{
		{Kind: AggSum, Levels: levels, Col: 0},
		{Kind: AggSum, Levels: levels, Col: 1},
		{Kind: AggSum, Levels: levels, Col: 2},
		{Kind: AggSum, Levels: levels, Col: 3},
		{Kind: AggAvg, Levels: levels, Col: 0},
		{Kind: AggAvg, Levels: levels, Col: 1},
		{Kind: AggAvg, Levels: levels, Col: 4},
		{Kind: AggCount, Levels: levels, Col: 0},
	}
}

// TestTuplePlanDecisions is the plan's decision table: which physical
// components a spec list maps to and how wide they encode. (When their
// summation buffers are planned is groupby's TestLayoutDecisions.)
func TestTuplePlanDecisions(t *testing.T) {
	const sum2 = 52 // encoded rsum.State64 at 2 levels
	for _, tc := range []struct {
		name  string
		specs []AggSpec
		sums  []sumComp
		count bool
		exts  []extComp
		width int
	}{
		{
			name:  "Q1 catalog: five sums and one count, not eleven states and four counts",
			specs: q1Catalog(2),
			sums:  []sumComp{{0, 2, false}, {1, 2, false}, {2, 2, false}, {3, 2, false}, {4, 2, false}},
			count: true,
			width: 5*sum2 + 8, // 268; the logical TupleSize is 396
		},
		{
			name:  "single SUM: one bare state, no count",
			specs: []AggSpec{{Kind: AggSum, Levels: 2, Col: 0}},
			sums:  []sumComp{{0, 2, false}},
			width: sum2,
		},
		{
			name: "AVG, VAR_POP, STDDEV_SAMP and SUM of one column share Σx, Σx², n",
			specs: []AggSpec{
				{Kind: AggAvg, Levels: 2, Col: 3}, {Kind: AggVarPop, Levels: 2, Col: 3},
				{Kind: AggStddevSamp, Levels: 2, Col: 3}, {Kind: AggSum, Levels: 2, Col: 3},
			},
			sums:  []sumComp{{3, 2, false}, {3, 2, true}},
			count: true,
			width: 2*sum2 + 8,
		},
		{
			name:  "COUNT only: no sums, so never a buffer",
			specs: []AggSpec{{Kind: AggCount, Col: 9}},
			count: true,
			width: 8,
		},
		{
			name:  "MIN and MAX of one column, each once",
			specs: []AggSpec{{Kind: AggMin, Col: 1}, {Kind: AggMax, Col: 1}, {Kind: AggMin, Col: 1}},
			exts:  []extComp{{1, false}, {1, true}},
			width: 18,
		},
		{
			name: "one column at two level counts: two states (0 resolves to the default, 2)",
			specs: []AggSpec{
				{Kind: AggSum, Levels: 2, Col: 0}, {Kind: AggAvg, Levels: 3, Col: 0}, {Kind: AggSum, Col: 0},
			},
			sums:  []sumComp{{0, 2, false}, {0, 3, false}},
			count: true,
			width: sum2 + (sum2 + 16) + 8,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewTuplePlan(tc.specs)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(p.sums) != fmt.Sprint(tc.sums) || p.count != tc.count || fmt.Sprint(p.exts) != fmt.Sprint(tc.exts) {
				t.Errorf("components: sums %v count %v exts %v, want %v %v %v",
					p.sums, p.count, p.exts, tc.sums, tc.count, tc.exts)
			}
			if p.Width() != tc.width {
				t.Errorf("Width = %d, want %d", p.Width(), tc.width)
			}
			logical, err := TupleSize(tc.specs)
			if err != nil || logical < p.Width() {
				t.Errorf("TupleSize = %d (%v): must stay an upper bound of the physical width %d", logical, err, p.Width())
			}
			if rb := p.RowBytes(); rb != 8*len(tc.sums) {
				t.Errorf("RowBytes = %d for %d sums", rb, len(tc.sums))
			}
		})
	}

	if logical, _ := TupleSize(q1Catalog(2)); logical != 396 {
		t.Errorf("logical Q1 tuple = %d bytes, want 396", logical)
	}
	for _, bad := range [][]AggSpec{nil, {{Kind: 0}}, {{Kind: AggSum, Levels: 99}}, make([]AggSpec, maxSpecs+1)} {
		if _, err := NewTuplePlan(bad); !errors.Is(err, ErrBadSpec) {
			t.Errorf("NewTuplePlan(%d specs) = %v, want ErrBadSpec", len(bad), err)
		}
	}
}

// TestSingleSumTupleIsTheSumState: a single-SUM plan's tuple encodes to
// exactly the bytes of a bare rsum state — the pre-tuple shuffle record.
func TestSingleSumTupleIsTheSumState(t *testing.T) {
	spec := AggSpec{Kind: AggSum, Levels: 2, Col: 0}
	vals := workload.Values64(3, 500, workload.MixedMag)
	st := rsum.NewState64(2)
	for _, v := range vals {
		st.Add(v)
	}
	want, _ := st.AppendBinary(nil)
	p, err := NewTuplePlan([]AggSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, bsz := range []int{0, 64} {
		tup := p.NewTuple(bsz)
		for i := range vals {
			p.AddRow(&tup, [][]float64{vals}, i)
		}
		got, err := p.AppendBinary(nil, &tup)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("bsz %d: tuple bytes differ from the SUM state's (err %v)", bsz, err)
		}
	}
}

// differentialCatalog reads two columns with every kind of the catalog,
// at two level counts for the sum-backed ones.
func differentialCatalog() []AggSpec {
	var specs []AggSpec
	for col, levels := range []int{2, 3} {
		for _, sp := range allSpecs(levels) {
			sp.Col = col
			specs = append(specs, sp)
		}
	}
	return append(specs, AggSpec{Kind: AggAvg, Levels: 4, Col: 0})
}

// TestTupleMatchesPerSpecStates is the differential test of the physical
// tuple, whose specs share components, against one unbuffered one-spec
// plan per spec (NewStates) fed sequentially: for every kind, over
// well-scaled rows and rows with NaN, ±Inf, ±0 and out-of-range
// magnitudes, a tuple pipeline — rows dealt to random shards, each
// shard a tuple at bsz 0, 32 or 1024, shards folded over a random
// merge tree by encoding one (its buffer part-filled) into another
// (likewise) — finalizes to the bits of NewStates + Add in row order.
func TestTupleMatchesPerSpecStates(t *testing.T) {
	const n = 2500
	specs := differentialCatalog()
	p, err := NewTuplePlan(specs)
	if err != nil {
		t.Fatal(err)
	}
	specials := map[string][]float64{
		"clean":      nil,
		"zeros":      {0, math.Copysign(0, -1)},
		"nan":        {math.NaN(), 0},
		"+inf":       {math.Inf(1), math.Copysign(0, -1)},
		"both infs":  {math.Inf(1), math.Inf(-1)},
		"2^990":      {0x1p990, 0x1p990},
		"-2^990":     {-0x1p990, 1},
		"everything": {math.NaN(), math.Inf(-1), 0x1p990, math.Copysign(0, -1)},
	}
	for name, inject := range specials {
		rng := workload.NewRNG(uint64(len(name)) * 977)
		cols := [][]float64{
			workload.Values64(11, n, workload.MixedMag),
			workload.Values64(12, n, workload.MixedMag),
		}
		for i, v := range inject {
			// Column 1 takes every special; column 0 every other one,
			// so some sums stay finite next to ones that do not.
			cols[1][rng.Intn(n)] = v
			if i%2 == 1 {
				cols[0][rng.Intn(n)] = v
			}
		}

		ref, err := NewStates(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for s, sp := range specs {
				ref[s].Add(cols[sp.Col][i])
			}
		}

		var canonical []byte
		for _, bsz := range []int{0, 32, 1024} {
			shards := make([]Tuple, 1+rng.Intn(6))
			for s := range shards {
				shards[s] = p.NewTuple(bsz)
			}
			for i := 0; i < n; i++ {
				p.AddRow(&shards[rng.Intn(len(shards))], cols, i)
			}
			for len(shards) > 1 {
				from := rng.Intn(len(shards))
				enc, err := p.AppendBinary(nil, &shards[from])
				if err != nil || len(enc) != p.Width() {
					t.Fatalf("%s bsz %d: encode: %d bytes, err %v", name, bsz, len(enc), err)
				}
				shards = append(shards[:from], shards[from+1:]...)
				if err := p.MergeBinary(&shards[rng.Intn(len(shards))], enc); err != nil {
					t.Fatalf("%s bsz %d: merge: %v", name, bsz, err)
				}
			}
			got := p.Finalize(nil, &shards[0])
			for s, sp := range specs {
				if want := ref[s].Value(); math.Float64bits(got[s]) != math.Float64bits(want) {
					t.Errorf("%s bsz %d: %s(col %d, L=%d) = %016x, per-spec state %016x",
						name, bsz, sp.Kind, sp.Col, sp.ResolvedLevels(), math.Float64bits(got[s]), math.Float64bits(want))
				}
			}
			// The encoding is canonical: the same rows give the same
			// bytes whatever the buffering, sharding and merge tree.
			enc, _ := p.AppendBinary(nil, &shards[0])
			if canonical == nil {
				canonical = enc
			} else if !bytes.Equal(enc, canonical) {
				t.Errorf("%s bsz %d: tuple bytes differ from bsz 0's", name, bsz)
			}
		}
	}
}

// TestBudgetEdgesTupleAndSumState: around the carry budget's edge
// (NB64 = 2048 values per group), with a level raise half-way and
// maximal contributions of one sign, an unbuffered tuple (which spends
// the budget value by value) encodes to the bytes of a bsz-32 one (the
// vector kernel), and the SUM AggState to the bytes of a state fed
// through AddEager (per-value propagation).
func TestBudgetEdgesTupleAndSumState(t *testing.T) {
	p, err := NewTuplePlan([]AggSpec{
		{Kind: AggSum, Levels: 2, Col: 0}, {Kind: AggAvg, Levels: 3, Col: 1}, {Kind: AggVarPop, Levels: 2, Col: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	edge := func(n int, sign float64) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = sign * math.Nextafter(0x1p27, 0) // contributes 2^(40−13)
			if i == n/2 {
				vs[i] = sign * 0x1p30 // raises the top level to 2^80
			} else if i > n/2 && i%2 == 0 {
				vs[i] = sign * math.Nextafter(0x1p67, 0) // 2^(80−13)
			}
		}
		return vs
	}
	for _, n := range []int{1, 15, 16, 17, 2047, 2048, 2049, 3*2048 + 5} {
		cols := [][]float64{edge(n, 1), edge(n, -1)}
		flat, buffered := p.NewTuple(0), p.NewTuple(32)
		sum := newState(t, AggSpec{Kind: AggSum, Levels: 2})
		eager := rsum.NewState64(2)
		for i := 0; i < n; i++ {
			p.AddRow(&flat, cols, i)
			p.AddRow(&buffered, cols, i)
			sum.Add(cols[0][i])
			eager.AddEager(cols[0][i])
		}
		a, _ := p.AppendBinary(nil, &flat)
		b, _ := p.AppendBinary(nil, &buffered)
		if !bytes.Equal(a, b) {
			t.Errorf("n=%d: bsz-0 tuple bytes differ from bsz 32's", n)
		}
		got, _ := sum.AppendBinary(nil)
		want, _ := eager.AppendBinary(nil)
		if !bytes.Equal(got, want) {
			t.Errorf("n=%d: SUM state bytes differ from AddEager's", n)
		}
	}
}

// TestAddRunMatchesAddRow: AddRun, given each piece's extents, over any
// split of a run leaves a tuple that encodes to the bytes of one AddRow per row into an
// unbuffered tuple, for every catalog kind at L = 1…4 (alone and all
// in one plan over two columns), on tuples with summation buffers of 0,
// 1, 8 and 256 values — runs far longer than the buffer their squares
// pass through included, and buffers AddRow left part-filled — reused
// through Reset, with ±0, the smallest
// subnormal, NaN, ±Inf and 2^1000 (whose square is +Inf) planted in the
// values.
func TestAddRunMatchesAddRow(t *testing.T) {
	const n = 1500
	specials := map[string][]float64{
		"clean":     nil,
		"zeros":     {0, math.Copysign(0, -1), 0x1p-1074, -0x1p-1074},
		"nan":       {math.NaN(), 1},
		"both infs": {math.Inf(1), math.Inf(-1)},
		"2^1000":    {0x1p1000, -0x1p1000, 0x1p1000},
	}
	runs := [][2]int{{0, 0}, {0, 1}, {3, 5}, {0, 255}, {0, 256}, {1, 258}, {17, 900}, {0, n}}
	for name, inject := range specials {
		rng := workload.NewRNG(uint64(len(name)) * 131)
		cols := [][]float64{workload.Values64(31, n, workload.MixedMag), workload.Values64(32, n, workload.MixedMag)}
		for _, v := range inject {
			for c := range cols {
				cols[c][rng.Intn(n)], cols[c][rng.Intn(300)] = v, v
			}
		}
		for levels := 1; levels <= rsum.MaxLevels; levels++ {
			all := allSpecs(levels)
			plans := [][]AggSpec{all}
			for i, sp := range all {
				all[i].Col = i % 2
				plans = append(plans, []AggSpec{sp})
			}
			for _, specs := range plans {
				p, err := NewTuplePlan(specs)
				if err != nil {
					t.Fatal(err)
				}
				for _, bsz := range []int{0, 1, 8, 256} {
					tup := p.NewTuple(bsz)
					for _, run := range runs {
						want := p.NewTuple(0)
						for row := run[0]; row < run[1]; row++ {
							p.AddRow(&want, cols, row)
						}
						wantEnc, _ := p.AppendBinary(nil, &want)
						// The run in one call, then cut at up to three random
						// rows; with cuts, the first piece goes in by AddRow,
						// so that AddRun meets a part-filled buffer.
						for cuts := 0; cuts < 4; cuts++ {
							at := []int{run[0], run[1]}
							for range cuts {
								at = append(at, run[0]+rng.Intn(run[1]-run[0]+1))
							}
							slices.Sort(at)
							p.Reset(&tup)
							for k := 1; k < len(at); k++ {
								if k == 1 && cuts > 0 {
									for row := at[0]; row < at[1]; row++ {
										p.AddRow(&tup, cols, row)
									}
									continue
								}
								p.AddRun(&tup, cols, AppendExtents(nil, cols, at[k-1], at[k]), at[k-1], at[k])
							}
							if got, err := p.AppendBinary(nil, &tup); err != nil || !bytes.Equal(got, wantEnc) {
								t.Fatalf("%s, L=%d, %d specs, bsz %d, rows %v split at %v: AddRun's bytes differ from AddRow's (err %v)",
									name, levels, len(specs), bsz, run, at, err)
							}
						}
					}
				}
			}
		}
	}
}

// TestTupleMergeRejectsWrongWidth: the error names both widths.
func TestTupleMergeRejectsWrongWidth(t *testing.T) {
	p, err := NewTuplePlan(q1Catalog(2))
	if err != nil {
		t.Fatal(err)
	}
	tup := p.NewTuple(0)
	err = p.MergeBinary(&tup, make([]byte, 396))
	if !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), "396") || !strings.Contains(err.Error(), "268") {
		t.Fatalf("396-byte logical tuple into a 268-byte plan: %v", err)
	}
}

// TestTupleMergeRejectsCountOverflow: merged row counts that would pass
// math.MaxInt64 are ErrBadState, so a tuple never holds a count its own
// encoding could not carry.
func TestTupleMergeRejectsCountOverflow(t *testing.T) {
	for _, specs := range [][]AggSpec{{{Kind: AggCount}}, q1Catalog(2)} {
		p, err := NewTuplePlan(specs)
		if err != nil {
			t.Fatal(err)
		}
		enc := func(n int64) []byte {
			tup := p.NewTuple(0)
			b, _ := p.AppendBinary(nil, &tup)
			binary.LittleEndian.PutUint64(b[p.Width()-countSize:], uint64(n))
			return b
		}
		tup := p.NewTuple(0)
		if err := p.MergeBinary(&tup, enc(math.MaxInt64)); err != nil {
			t.Fatalf("%d specs: a count of 2^63-1: %v", len(specs), err)
		}
		if err := p.MergeBinary(&tup, enc(1)); !errors.Is(err, ErrBadState) {
			t.Fatalf("%d specs: 2^63-1 + 1 rows merged: %v", len(specs), err)
		}
		if got, err := p.AppendBinary(nil, &tup); err != nil || !bytes.Equal(got, enc(math.MaxInt64)) {
			t.Errorf("%d specs: the rejected merge moved the count (err %v)", len(specs), err)
		}
	}
}

// FuzzTupleDecode drives arbitrary bytes through whole-tuple decoding,
// for plans of every component shape, a one-spec plan of every kind at
// the level-count extremes among them. Malformed bytes are ErrBadState,
// never a panic; accepted bytes are canonical, so decoding them into an
// empty tuple and re-encoding reproduces them exactly. Spec lists cross
// the same boundary in job blobs, and are held to the same fixpoint.
func FuzzTupleDecode(f *testing.F) {
	catalogs := [][]AggSpec{
		{{Kind: AggSum, Levels: 2}},
		q1Catalog(2),
		differentialCatalog(),
		{{Kind: AggCount}},
		{{Kind: AggMin, Col: 1}, {Kind: AggMax, Col: 1}},
	}
	for _, levels := range []int{1, core.MaxLevels} {
		for _, sp := range allSpecs(levels) {
			catalogs = append(catalogs, []AggSpec{sp})
		}
	}
	plans := make([]*TuplePlan, len(catalogs))
	cols := [][]float64{{1.5, -2.25}, {0x1p-30, 3}, {7, 7}, {-1, 0}, {0.5, 0.25}}
	for i, specs := range catalogs {
		p, err := NewTuplePlan(specs)
		if err != nil {
			f.Fatal(err)
		}
		plans[i] = p
		tup := p.NewTuple(0)
		f.Add(mustEncode(f, p, &tup)) // the empty tuple
		p.AddRow(&tup, cols, 0)
		p.AddRow(&tup, cols, 1)
		f.Add(mustEncode(f, p, &tup))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for i, p := range plans {
			tup := p.NewTuple(0)
			err := p.MergeBinary(&tup, data)
			if len(data) != p.Width() {
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d bytes, plan width %d", len(data), p.Width())) {
					t.Fatalf("plan %d: %d bytes into width %d: %v", i, len(data), p.Width(), err)
				}
			}
			if err != nil {
				if !errors.Is(err, ErrBadState) {
					t.Fatalf("plan %d: untyped decode error: %v", i, err)
				}
				continue
			}
			re, err := p.AppendBinary(nil, &tup)
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("plan %d: accepted non-canonical tuple (re-encode err %v)", i, err)
			}
			_ = p.Finalize(nil, &tup)
		}
		if specs, err := DecodeSpecs(data); err == nil {
			re, err := EncodeSpecs(nil, specs)
			if err != nil || !bytes.Equal(re, data) {
				t.Fatal("DecodeSpecs accepted a non-canonical spec list")
			}
		}
	})
}

func mustEncode(f *testing.F, p *TuplePlan, t *Tuple) []byte {
	f.Helper()
	enc, err := p.AppendBinary(nil, t)
	if err != nil {
		f.Fatal(err)
	}
	return enc
}
