package repro_test

import (
	"math"
	"testing"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/tpch"
)

// TestQ1EquivalenceMatrix is the acceptance gate of the multi-aggregate
// GROUP BY plane: TPC-H Q1 (4×SUM, 3×AVG, COUNT) produces bit-identical
// rows on the local engine, the in-process channel cluster, the TCP
// cluster, and a NewCluster of worker processes. The clusters run
// under an injected fault plan, the socket ones with forced
// multi-chunk shuffle streams too, which must be invisible in the
// bits.
func TestQ1EquivalenceMatrix(t *testing.T) {
	tbl := tpch.GenLineitem(0.001, 17)
	const levels = 2
	want, _, err := tpch.RunQ1(tbl, engine.GroupByConfig{Kind: engine.SumRepro, Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	keys, cols, err := tpch.Q1Input(tbl)
	if err != nil {
		t.Fatal(err)
	}
	specs := tpch.Q1Specs(levels)
	shardKeys, shardCols := tpch.ShardQ1Input(keys, cols, 4)

	faults := repro.FaultPlan{
		Seed: 99, DropProb: 0.05, MaxDrops: 40, RetryDelay: time.Millisecond,
		DupProb: 0.05, MaxDelay: time.Millisecond, Reorder: true,
	}
	inProcess := func(opts ...repro.DistOption) func() ([]repro.TupleGroup, error) {
		return func() ([]repro.TupleGroup, error) {
			return repro.DistributedAggregateByKey(shardKeys, shardCols, 2, specs, opts...)
		}
	}
	modes := []struct {
		name string
		run  func() ([]repro.TupleGroup, error)
	}{
		{"chan", inProcess(repro.WithChanTransport(), repro.WithFaults(faults))},
		{"tcp", inProcess(repro.WithTCPTransport(), repro.WithFaults(faults),
			repro.WithMaxChunkPayload(4096))},
		{"proc", func() ([]repro.TupleGroup, error) {
			c, err := repro.NewCluster(repro.ClusterSpec{Nodes: 4}, repro.WithFaults(faults),
				repro.WithMaxChunkPayload(4096), repro.WithStragglerDeadline(250*time.Millisecond))
			if err != nil {
				return nil, err
			}
			defer c.Close()
			res, err := c.Run(repro.Job{Workers: 2, Specs: specs, Source: repro.RowShards(shardKeys, shardCols)})
			if err != nil {
				return nil, err
			}
			return res.Groups, nil
		}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			tuples, err := mode.run()
			if err != nil {
				t.Fatalf("%s run: %v", mode.name, err)
			}
			got, err := tpch.Q1FromTuples(tuples)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d groups, want %d", len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.ReturnFlag != w.ReturnFlag || g.LineStatus != w.LineStatus || g.Count != w.Count {
					t.Fatalf("group row %d: %c%c/%d, want %c%c/%d",
						i, g.ReturnFlag, g.LineStatus, g.Count, w.ReturnFlag, w.LineStatus, w.Count)
				}
				for c, pair := range [][2]float64{
					{g.SumQty, w.SumQty}, {g.SumBasePrice, w.SumBasePrice},
					{g.SumDiscPrice, w.SumDiscPrice}, {g.SumCharge, w.SumCharge},
					{g.AvgQty, w.AvgQty}, {g.AvgPrice, w.AvgPrice}, {g.AvgDisc, w.AvgDisc},
				} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("group %c%c output column %d: %016x != %016x",
							g.ReturnFlag, g.LineStatus, c, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
					}
				}
			}
		})
	}
}

// TestDistributedAggregateByKeyCatalog: a quick end-to-end pass over
// every aggregate kind of the catalog on the default transport, checked
// against directly computed per-key references where the math is exact.
func TestDistributedAggregateByKeyCatalog(t *testing.T) {
	keys := []uint32{1, 2, 1, 2, 1}
	col := []float64{2, 10, 4, 30, 6}
	specs := []repro.AggSpec{
		{Kind: repro.AggSum, Col: 0},
		{Kind: repro.AggCount, Col: 0},
		{Kind: repro.AggAvg, Col: 0},
		{Kind: repro.AggMin, Col: 0},
		{Kind: repro.AggMax, Col: 0},
		{Kind: repro.AggVarPop, Col: 0},
		{Kind: repro.AggStddevSamp, Col: 0},
	}
	tuples, err := repro.DistributedAggregateByKey(
		[][]uint32{keys[:3], keys[3:]},
		[][][]float64{{col[:3]}, {col[3:]}},
		1, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 || tuples[0].Key != 1 || tuples[1].Key != 2 {
		t.Fatalf("tuples = %+v", tuples)
	}
	wantRows := [][]float64{
		{12, 3, 4, 2, 6, 8.0 / 3.0, 2},                          // key 1: {2,4,6}
		{40, 2, 20, 10, 30, 100, math.Sqrt(2) * math.Sqrt(100)}, // key 2: {10,30}
	}
	for r, wants := range wantRows {
		for c, w := range wants {
			if got := tuples[r].Aggs[c]; math.Abs(got-w) > 1e-12*math.Max(math.Abs(w), 1) {
				t.Errorf("row %d spec %d: got %v, want %v", r, c, got, w)
			}
		}
	}
}
