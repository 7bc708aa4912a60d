// Package tpch provides a deterministic, dbgen-like generator for the
// TPC-H lineitem columns needed by Query 1, and the Q1 plan itself on
// the internal column-store engine. Following the paper's modified
// benchmark (Section VI-E), all DECIMAL columns are generated as DOUBLE.
package tpch

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/sqlagg"
	"repro/internal/workload"
)

// Dates are day numbers with day 0 = 1992-01-01 (the earliest TPC-H
// order date). The data spans ~7 years.
const (
	// ShipDateMax is the largest generated ship date (≈ 1998-12-01).
	ShipDateMax = 2526
	// Q1CutoffDate is 1998-12-01 − 90 days, the Q1 predicate constant
	// (the paper runs the standard Q1 predicate DELTA=90).
	Q1CutoffDate = ShipDateMax - 90
	// currentDate is dbgen's 1995-06-17, which splits returnflag and
	// linestatus populations.
	currentDate = 1264
)

// LineitemRowsPerSF is the TPC-H lineitem cardinality per scale factor.
const LineitemRowsPerSF = 6_001_215

// GenLineitem generates a lineitem table with the Q1-relevant columns
// at the given scale factor (rows = sf · 6,001,215, minimum 1000).
// Generation is deterministic in seed.
func GenLineitem(sf float64, seed uint64) *engine.Table {
	n := int(sf * LineitemRowsPerSF)
	if n < 1000 {
		n = 1000
	}
	return GenLineitemRows(n, seed)
}

// GenLineitemRows generates a lineitem table with exactly rows rows,
// the row-count-addressed form the ledger and the cluster tests use.
func GenLineitemRows(rows int, seed uint64) *engine.Table {
	n := rows
	r := workload.NewRNG(seed)

	quantity := make(engine.Float64Column, n)
	extPrice := make(engine.Float64Column, n)
	discount := make(engine.Float64Column, n)
	tax := make(engine.Float64Column, n)
	returnflag := make(engine.ByteColumn, n)
	linestatus := make(engine.ByteColumn, n)
	shipdate := make(engine.Int32Column, n)

	for i := 0; i < n; i++ {
		q := 1 + int(r.Uint32n(50))
		quantity[i] = float64(q)
		// dbgen: extendedprice = quantity · part-derived unit price;
		// approximate with a unit price in [900, 1941).
		extPrice[i] = float64(q) * (900 + float64(r.Uint32n(104100))/100)
		discount[i] = float64(r.Uint32n(11)) / 100 // 0.00 .. 0.10
		tax[i] = float64(r.Uint32n(9)) / 100       // 0.00 .. 0.08
		sd := int32(r.Uint32n(ShipDateMax + 1))
		shipdate[i] = sd
		if sd <= currentDate {
			if r.Uint32n(2) == 0 {
				returnflag[i] = 'R'
			} else {
				returnflag[i] = 'A'
			}
			linestatus[i] = 'F'
		} else {
			returnflag[i] = 'N'
			if sd > currentDate+30 {
				linestatus[i] = 'O'
			} else if r.Uint32n(2) == 0 {
				linestatus[i] = 'O'
			} else {
				linestatus[i] = 'F'
			}
		}
	}

	t := engine.NewTable("lineitem")
	t.MustAddColumn("l_quantity", quantity)
	t.MustAddColumn("l_extendedprice", extPrice)
	t.MustAddColumn("l_discount", discount)
	t.MustAddColumn("l_tax", tax)
	t.MustAddColumn("l_returnflag", returnflag)
	t.MustAddColumn("l_linestatus", linestatus)
	t.MustAddColumn("l_shipdate", shipdate)
	return t
}

// Q1Group is one output row of Query 1.
type Q1Group struct {
	ReturnFlag   byte
	LineStatus   byte
	SumQty       float64
	SumBasePrice float64
	SumDiscPrice float64
	SumCharge    float64
	AvgQty       float64
	AvgPrice     float64
	AvgDisc      float64
	Count        int64
}

// q1NumGroups is the group-id domain: returnflag ∈ {A,N,R} ×
// linestatus ∈ {F,O}.
const q1NumGroups = 6

func q1GroupID(flag, status byte) uint32 {
	var f uint32
	switch flag {
	case 'A':
		f = 0
	case 'N':
		f = 1
	default: // 'R'
		f = 2
	}
	var s uint32
	if status == 'O' {
		s = 1
	}
	return f*2 + s
}

func q1GroupOf(id uint32) (flag, status byte) {
	flag = [3]byte{'A', 'N', 'R'}[id/2]
	status = [2]byte{'F', 'O'}[id%2]
	return flag, status
}

// RunQ1 executes TPC-H Query 1 against the lineitem table with the
// given SUM kernel configuration: Q1Input's scan side, timed as one
// "scan" span, then one engine GROUP BY per summed column and one
// COUNT, whose per-group totals Q1FromTuples turns into rows. It
// returns the result groups (ordered by returnflag, linestatus) and the
// per-operator profile.
func RunQ1(t *engine.Table, cfg engine.GroupByConfig) ([]Q1Group, *engine.Profiler, error) {
	prof := engine.NewProfiler()
	var keys []uint32
	var cols [][]float64
	var err error
	prof.Measure("scan", func() { keys, cols, err = Q1Input(t) })
	if err != nil {
		return nil, nil, err
	}

	// Aggregations (the operator the paper patches in MonetDB).
	sums := make([][]float64, len(cols))
	for c, col := range cols {
		if sums[c], err = engine.GroupedSum(keys, q1NumGroups, col, cfg, prof); err != nil {
			return nil, nil, err
		}
	}
	counts := engine.GroupedCount(keys, q1NumGroups, prof)

	specs := Q1Specs(0)
	var tuples []dist.TupleGroup
	for g, n := range counts {
		if n == 0 {
			continue
		}
		aggs := make([]float64, 0, len(specs))
		for _, s := range specs {
			switch s.Kind {
			case sqlagg.AggSum:
				aggs = append(aggs, sums[s.Col][g])
			case sqlagg.AggAvg:
				aggs = append(aggs, sums[s.Col][g]/float64(n))
			default: // COUNT
				aggs = append(aggs, float64(n))
			}
		}
		tuples = append(tuples, dist.TupleGroup{Key: uint32(g), Aggs: aggs})
	}
	rows, err := Q1FromTuples(tuples)
	return rows, prof, err
}

// FormatQ1 renders a result row like the TPC-H reference output.
func FormatQ1(g Q1Group) string {
	return fmt.Sprintf("%c|%c|%.2f|%.2f|%.2f|%.2f|%.6f|%.6f|%.6f|%d",
		g.ReturnFlag, g.LineStatus, g.SumQty, g.SumBasePrice, g.SumDiscPrice,
		g.SumCharge, g.AvgQty, g.AvgPrice, g.AvgDisc, g.Count)
}
