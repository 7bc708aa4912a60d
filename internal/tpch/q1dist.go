package tpch

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/groupby"
	"repro/internal/sqlagg"
)

// Distributed Q1: the same query as RunQ1, expressed as a spec list for
// the multi-aggregate GROUP BY plane. Q1Input evaluates the scan side
// (select, gather, project, group ids) into key and value columns,
// Q1Specs names the eight aggregates, and Q1FromTuples finalizes the
// tuples into Q1Group rows; RunQ1 is the same scan and the same rows
// around the engine's single-column GROUP BYs. Running the specs on the
// local engine, the goroutine cluster, or the process cluster yields
// bit-identical rows to RunQ1 at the same level count — Q1 is the
// proving workload of the pluggable aggregate catalog.

// Q1's value-column layout, as produced by Q1Input.
const (
	Q1ColQty       = 0 // l_quantity
	Q1ColPrice     = 1 // l_extendedprice
	Q1ColDiscPrice = 2 // price · (1 − discount)
	Q1ColCharge    = 3 // disc_price · (1 + tax)
	Q1ColDisc      = 4 // l_discount
	q1NumCols      = 5
)

// Q1Specs is Q1's aggregate catalog: four SUMs, three AVGs, and the row
// COUNT, in output-column order.
func Q1Specs(levels int) []sqlagg.AggSpec {
	return []sqlagg.AggSpec{
		{Kind: sqlagg.AggSum, Levels: levels, Col: Q1ColQty},
		{Kind: sqlagg.AggSum, Levels: levels, Col: Q1ColPrice},
		{Kind: sqlagg.AggSum, Levels: levels, Col: Q1ColDiscPrice},
		{Kind: sqlagg.AggSum, Levels: levels, Col: Q1ColCharge},
		{Kind: sqlagg.AggAvg, Levels: levels, Col: Q1ColQty},
		{Kind: sqlagg.AggAvg, Levels: levels, Col: Q1ColPrice},
		{Kind: sqlagg.AggAvg, Levels: levels, Col: Q1ColDisc},
		{Kind: sqlagg.AggCount, Levels: levels, Col: 0},
	}
}

// Q1Input evaluates Q1's scan side against the lineitem table: the
// shipdate filter, the disc_price and charge projections, and the
// domain-encoded group ids. It returns the group keys plus the five
// value columns of the Q1 column layout, ready to shard across a
// cluster.
func Q1Input(t *engine.Table) (keys []uint32, cols [][]float64, err error) {
	shipdate, err := t.Int32("l_shipdate")
	if err != nil {
		return nil, nil, err
	}
	quantityCol, err := t.Float64("l_quantity")
	if err != nil {
		return nil, nil, err
	}
	priceCol, err := t.Float64("l_extendedprice")
	if err != nil {
		return nil, nil, err
	}
	discCol, err := t.Float64("l_discount")
	if err != nil {
		return nil, nil, err
	}
	taxCol, err := t.Float64("l_tax")
	if err != nil {
		return nil, nil, err
	}
	flagCol, err := t.Byte("l_returnflag")
	if err != nil {
		return nil, nil, err
	}
	statusCol, err := t.Byte("l_linestatus")
	if err != nil {
		return nil, nil, err
	}

	sel := engine.SelectInt32LE(shipdate, Q1CutoffDate)
	qty := engine.GatherFloat64(quantityCol, sel)
	price := engine.GatherFloat64(priceCol, sel)
	disc := engine.GatherFloat64(discCol, sel)
	tax := engine.GatherFloat64(taxCol, sel)
	flags := engine.GatherByte(flagCol, sel)
	statuses := engine.GatherByte(statusCol, sel)

	discPrice := make([]float64, len(sel))
	charge := make([]float64, len(sel))
	negDisc := make([]float64, len(sel))
	engine.Neg(negDisc, disc)
	engine.MulScalarAdd(discPrice, price, negDisc, 1)
	engine.MulScalarAdd(charge, discPrice, tax, 1)

	keys = make([]uint32, len(sel))
	for i := range keys {
		keys[i] = q1GroupID(flags[i], statuses[i])
	}

	cols = make([][]float64, q1NumCols)
	cols[Q1ColQty] = qty
	cols[Q1ColPrice] = price
	cols[Q1ColDiscPrice] = discPrice
	cols[Q1ColCharge] = charge
	cols[Q1ColDisc] = disc
	return keys, cols, nil
}

// ShardQ1Input deals Q1Input's rows round-robin into n shards, the
// sharding the distributed equivalence tests and benchmarks use.
func ShardQ1Input(keys []uint32, cols [][]float64, n int) (shardKeys [][]uint32, shardCols [][][]float64) {
	return groupby.Deal(keys, cols, n)
}

// Q1FromTuples finalizes multi-aggregate GROUP BY tuples (produced by a
// run of Q1Specs) into Q1 result rows, ordered by returnflag and
// linestatus like RunQ1.
func Q1FromTuples(tuples []dist.TupleGroup) ([]Q1Group, error) {
	out := make([]Q1Group, 0, len(tuples))
	for _, t := range tuples {
		if len(t.Aggs) != len(Q1Specs(0)) {
			return nil, fmt.Errorf("tpch: Q1 tuple carries %d aggregates, want %d", len(t.Aggs), len(Q1Specs(0)))
		}
		if t.Key >= q1NumGroups {
			return nil, fmt.Errorf("tpch: Q1 tuple key %d outside the group domain", t.Key)
		}
		flag, status := q1GroupOf(t.Key)
		out = append(out, Q1Group{
			ReturnFlag:   flag,
			LineStatus:   status,
			SumQty:       t.Aggs[0],
			SumBasePrice: t.Aggs[1],
			SumDiscPrice: t.Aggs[2],
			SumCharge:    t.Aggs[3],
			AvgQty:       t.Aggs[4],
			AvgPrice:     t.Aggs[5],
			AvgDisc:      t.Aggs[6],
			Count:        int64(t.Aggs[7]),
		})
	}
	return out, nil
}
