package engine

import (
	"math"
	"testing"

	"repro/internal/workload"
)

func TestTableBasics(t *testing.T) {
	tb := NewTable("t")
	if tb.NumRows() != 0 {
		t.Error("empty table rows")
	}
	if err := tb.AddColumn("a", Float64Column{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddColumn("b", Int32Column{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddColumn("c", ByteColumn{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 3 || tb.Name() != "t" {
		t.Error("table metadata wrong")
	}
	if err := tb.AddColumn("a", Float64Column{1, 2, 3}); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := tb.AddColumn("d", Float64Column{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := tb.Float64("a"); err != nil {
		t.Error(err)
	}
	if _, err := tb.Float64("b"); err == nil {
		t.Error("type confusion accepted")
	}
	if _, err := tb.Int32("b"); err != nil {
		t.Error(err)
	}
	if _, err := tb.Byte("c"); err != nil {
		t.Error(err)
	}
	if _, err := tb.Column("zz"); err == nil {
		t.Error("missing column accepted")
	}
	cols := tb.Columns()
	if len(cols) != 3 || cols[0] != "a" || cols[2] != "c" {
		t.Errorf("Columns() = %v", cols)
	}
}

func TestSelectGather(t *testing.T) {
	dates := Int32Column{5, 10, 15, 20}
	sel := SelectInt32LE(dates, 12)
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 1 {
		t.Fatalf("sel = %v", sel)
	}
	vals := GatherFloat64(Float64Column{1.5, 2.5, 3.5, 4.5}, sel)
	if vals[0] != 1.5 || vals[1] != 2.5 {
		t.Errorf("gather = %v", vals)
	}
	bs := GatherByte(ByteColumn{'a', 'b', 'c', 'd'}, sel)
	if string(bs) != "ab" {
		t.Errorf("gather bytes = %q", bs)
	}
}

func TestProjections(t *testing.T) {
	a := []float64{10, 20}
	b := []float64{-0.1, -0.2}
	dst := make([]float64, 2)
	MulScalarAdd(dst, a, b, 1) // a·(1+b)
	if dst[0] != 9 || dst[1] != 16 {
		t.Errorf("MulScalarAdd = %v", dst)
	}
	Neg(dst, a)
	if dst[0] != -10 {
		t.Errorf("Neg = %v", dst)
	}
}

func TestGroupedSumKernelsAgree(t *testing.T) {
	const n, g = 50000, 6
	groups := make([]uint32, n)
	kraw := workload.Keys(1, n, g)
	copy(groups, kraw)
	vals := workload.Values64(2, n, workload.Exp1)

	ref, err := GroupedSum(groups, g, vals, GroupByConfig{Kind: SumPlain}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []SumKind{SumRepro, SumReproBuffered, SumSorted} {
		got, err := GroupedSum(groups, g, vals, GroupByConfig{Kind: kind}, NewProfiler())
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if math.Abs(got[i]-ref[i]) > 1e-6*math.Abs(ref[i])+1e-9 {
				t.Errorf("%v group %d: %v vs plain %v", kind, i, got[i], ref[i])
			}
		}
	}
}

func TestGroupedSumReproIsPermutationStable(t *testing.T) {
	const n, g = 30000, 4
	groups := workload.Keys(3, n, g)
	vals := workload.Values64(4, n, workload.MixedMag)
	run := func(kind SumKind, gr []uint32, vs []float64) []float64 {
		out, err := GroupedSum(gr, g, vs, GroupByConfig{Kind: kind, Levels: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, kind := range []SumKind{SumRepro, SumReproBuffered, SumSorted} {
		base := run(kind, groups, vals)
		pg := append([]uint32(nil), groups...)
		pv := append([]float64(nil), vals...)
		workload.ShufflePairs(7, pg, pv)
		perm := run(kind, pg, pv)
		for i := range base {
			if math.Float64bits(base[i]) != math.Float64bits(perm[i]) {
				t.Errorf("%v: group %d not permutation-stable", kind, i)
			}
		}
	}
}

func TestGroupedSumErrors(t *testing.T) {
	if _, err := GroupedSum([]uint32{0}, 1, []float64{1, 2}, GroupByConfig{}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := GroupedSum(nil, 0, nil, GroupByConfig{}, nil); err == nil {
		t.Error("ngroups=0 accepted")
	}
	if _, err := GroupedSum([]uint32{0}, 1, []float64{1}, GroupByConfig{Kind: SumKind(99)}, nil); err == nil {
		t.Error("bad kind accepted")
	}
}

func TestGroupedCount(t *testing.T) {
	counts := GroupedCount([]uint32{0, 1, 1, 2, 2, 2}, 3, NewProfiler())
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 3 {
		t.Errorf("counts = %v", counts)
	}
}

func TestProfiler(t *testing.T) {
	p := NewProfiler()
	p.Measure("x", func() {})
	p.Measure("x", func() {})
	p.Measure("y", func() {})
	if p.Get("x") <= 0 || p.Get("y") <= 0 {
		t.Error("times not recorded")
	}
	if p.Get("z") != 0 {
		t.Error("unknown label should be 0")
	}
	if p.Total() < p.Get("x")+p.Get("y") {
		t.Error("total too small")
	}
	labels := p.Labels()
	if len(labels) != 2 || labels[0] != "x" {
		t.Errorf("labels = %v", labels)
	}
}

func TestSumKindString(t *testing.T) {
	names := map[SumKind]string{
		SumPlain: "double", SumRepro: "repro",
		SumReproBuffered: "repro+buffer", SumSorted: "sorted double",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestGroupedAvg(t *testing.T) {
	avg := GroupedAvg([]float64{10, 0}, []int64{4, 0})
	if avg[0] != 2.5 {
		t.Errorf("avg = %v", avg[0])
	}
	if !math.IsNaN(avg[1]) {
		t.Error("empty group avg should be NaN")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	GroupedAvg([]float64{1}, []int64{1, 2})
}
