package tpch

import (
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
)

func genSmall(t *testing.T) *engine.Table {
	t.Helper()
	return GenLineitem(0.002, 1) // ≈ 12k rows
}

func TestGenLineitemShape(t *testing.T) {
	tbl := genSmall(t)
	n := tbl.NumRows()
	if n < 10000 {
		t.Fatalf("rows = %d", n)
	}
	qty, err := tbl.Float64("l_quantity")
	if err != nil {
		t.Fatal(err)
	}
	price, _ := tbl.Float64("l_extendedprice")
	disc, _ := tbl.Float64("l_discount")
	tax, _ := tbl.Float64("l_tax")
	flag, _ := tbl.Byte("l_returnflag")
	status, _ := tbl.Byte("l_linestatus")
	ship, _ := tbl.Int32("l_shipdate")
	for i := 0; i < n; i++ {
		if qty[i] < 1 || qty[i] > 50 {
			t.Fatalf("quantity %v", qty[i])
		}
		if price[i] < 900 || price[i] > 50*2000 {
			t.Fatalf("price %v", price[i])
		}
		if disc[i] < 0 || disc[i] > 0.10 {
			t.Fatalf("discount %v", disc[i])
		}
		if tax[i] < 0 || tax[i] > 0.08 {
			t.Fatalf("tax %v", tax[i])
		}
		if flag[i] != 'A' && flag[i] != 'N' && flag[i] != 'R' {
			t.Fatalf("returnflag %c", flag[i])
		}
		if status[i] != 'O' && status[i] != 'F' {
			t.Fatalf("linestatus %c", status[i])
		}
		if ship[i] < 0 || ship[i] > ShipDateMax {
			t.Fatalf("shipdate %d", ship[i])
		}
		// dbgen invariants: N goes with post-currentdate shipping.
		if flag[i] == 'N' && ship[i] <= 1264 {
			t.Fatalf("N with early shipdate")
		}
	}
}

func TestGenDeterministic(t *testing.T) {
	a := GenLineitem(0.001, 7)
	b := GenLineitem(0.001, 7)
	qa, _ := a.Float64("l_extendedprice")
	qb, _ := b.Float64("l_extendedprice")
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatal("generation not deterministic")
		}
	}
	c := GenLineitem(0.001, 8)
	qc, _ := c.Float64("l_extendedprice")
	same := 0
	for i := range qa {
		if qa[i] == qc[i] {
			same++
		}
	}
	if same > len(qa)/100 {
		t.Error("different seeds produce near-identical data")
	}
}

func TestQ1AllKernelsAgree(t *testing.T) {
	tbl := genSmall(t)
	ref, prof, err := RunQ1(tbl, engine.GroupByConfig{Kind: engine.SumPlain})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) < 3 {
		t.Fatalf("Q1 groups = %d", len(ref))
	}
	if prof.Get("aggregation") <= 0 {
		t.Error("aggregation time not recorded")
	}
	total := int64(0)
	for _, g := range ref {
		total += g.Count
	}
	// Selectivity of shipdate <= cutoff ≈ 2437/2527 ≈ 96%.
	if total < int64(tbl.NumRows())*9/10 {
		t.Errorf("Q1 selected %d of %d rows", total, tbl.NumRows())
	}
	for _, kind := range []engine.SumKind{engine.SumRepro, engine.SumReproBuffered, engine.SumSorted} {
		got, _, err := RunQ1(tbl, engine.GroupByConfig{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("%v: %d groups vs %d", kind, len(got), len(ref))
		}
		for i := range got {
			g, r := got[i], ref[i]
			if g.ReturnFlag != r.ReturnFlag || g.LineStatus != r.LineStatus || g.Count != r.Count {
				t.Fatalf("%v: group row mismatch", kind)
			}
			for _, pair := range [][2]float64{
				{g.SumQty, r.SumQty}, {g.SumBasePrice, r.SumBasePrice},
				{g.SumDiscPrice, r.SumDiscPrice}, {g.SumCharge, r.SumCharge},
				{g.AvgQty, r.AvgQty}, {g.AvgDisc, r.AvgDisc},
			} {
				if math.Abs(pair[0]-pair[1]) > 1e-6*math.Abs(pair[1])+1e-9 {
					t.Fatalf("%v: aggregate %v vs %v", kind, pair[0], pair[1])
				}
			}
		}
	}
}

func TestQ1ReproKernelPermutationStable(t *testing.T) {
	tbl := GenLineitem(0.001, 3)
	a, _, err := RunQ1(tbl, engine.GroupByConfig{Kind: engine.SumRepro, Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the table with rows in reverse physical order.
	rev := engine.NewTable("lineitem")
	for _, name := range tbl.Columns() {
		c, _ := tbl.Column(name)
		switch col := c.(type) {
		case engine.Float64Column:
			r := make(engine.Float64Column, len(col))
			for i := range col {
				r[len(col)-1-i] = col[i]
			}
			rev.MustAddColumn(name, r)
		case engine.Int32Column:
			r := make(engine.Int32Column, len(col))
			for i := range col {
				r[len(col)-1-i] = col[i]
			}
			rev.MustAddColumn(name, r)
		case engine.ByteColumn:
			r := make(engine.ByteColumn, len(col))
			for i := range col {
				r[len(col)-1-i] = col[i]
			}
			rev.MustAddColumn(name, r)
		}
	}
	b, _, err := RunQ1(rev, engine.GroupByConfig{Kind: engine.SumRepro, Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float64bits(a[i].SumCharge) != math.Float64bits(b[i].SumCharge) ||
			math.Float64bits(a[i].SumDiscPrice) != math.Float64bits(b[i].SumDiscPrice) {
			t.Fatalf("repro Q1 changed under physical reordering (group %c%c)",
				a[i].ReturnFlag, a[i].LineStatus)
		}
	}
}

func TestQ1SortedSlower(t *testing.T) {
	tbl := genSmall(t)
	_, pPlain, err := RunQ1(tbl, engine.GroupByConfig{Kind: engine.SumPlain})
	if err != nil {
		t.Fatal(err)
	}
	_, pSorted, err := RunQ1(tbl, engine.GroupByConfig{Kind: engine.SumSorted})
	if err != nil {
		t.Fatal(err)
	}
	if pSorted.Total() < pPlain.Total() {
		t.Skip("timing noise: sorted faster than plain on tiny input")
	}
	if pSorted.Get("sort") == 0 {
		t.Error("sorted kernel recorded no sort time")
	}
}

func TestFormatQ1(t *testing.T) {
	s := FormatQ1(Q1Group{ReturnFlag: 'A', LineStatus: 'F', SumQty: 100.5, Count: 3})
	if !strings.HasPrefix(s, "A|F|100.50|") || !strings.HasSuffix(s, "|3") {
		t.Errorf("FormatQ1 = %q", s)
	}
}
