// Example: a real multi-process cluster. NewCluster spawns one worker
// OS process per cluster node — each speaking the v2 frame codec over
// TCP sockets to its peers, joined through a handshake that rejects
// version/levels/config mismatches — and every Job it runs is
// bit-identical to the single-machine operator and to every in-process
// transport. The only ceremony: main must call repro.InitWorkerProcess
// first, so the re-executed binary can become a worker.
//
// The first half runs a SUM and a GROUP BY on one cluster. The second
// half forms an elastic one: a standby worker heals a forced mid-run
// death without changing a bit, and a follow-up GROUP BY over rows
// generated here runs on the healed workers, again to the bit.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"math"
	"os"

	"repro"
)

func main() {
	repro.InitWorkerProcess() // becomes a cluster worker when spawned as one

	const rows = 200000
	vals := make([]float64, rows)
	for i := range vals {
		// An adversarial mix of magnitudes: exactly what makes naive
		// parallel summation order-dependent.
		vals[i] = math.Pow(-1, float64(i%2)) * math.Pow(2, float64(i%120-60))
	}
	ref := repro.Sum(vals)

	// One cluster of 3 worker processes runs both jobs of the first
	// half. Its interconnect options apply to every job it runs: here
	// a small chunk payload, so the GROUP BY's shuffle is forced into
	// multi-chunk streams whose chunks genuinely cross sockets out of
	// order.
	c, err := repro.NewCluster(repro.ClusterSpec{Nodes: 3}, repro.WithMaxChunkPayload(4096))
	check("cluster", err)

	// Deal the rows across 3 shards, one per worker process.
	shards := make([][]float64, 3)
	for i, v := range vals {
		shards[i%3] = append(shards[i%3], v)
	}
	res, err := c.Run(repro.Job{Workers: 2, Source: repro.ValueShards(shards)})
	check("cluster sum", err)

	fmt.Printf("single-machine : %016x (%g)\n", math.Float64bits(ref), ref)
	fmt.Printf("3-process      : %016x (%g)\n", math.Float64bits(res.Sum), res.Sum)
	if math.Float64bits(res.Sum) != math.Float64bits(ref) {
		bug("cross-process run broke bit-reproducibility")
	}
	fmt.Println("bit-identical across process boundaries ✓")

	// The same across a GROUP BY shuffle, on the same workers.
	keys := make([]uint32, rows)
	for i := range keys {
		keys[i] = uint32(i % 1024)
	}
	want := repro.GroupBySum(keys, vals, nil)
	sk := [][]uint32{keys[:rows/2], keys[rows/2:]}
	sc := [][][]float64{{vals[:rows/2]}, {vals[rows/2:]}}
	res, err = c.Run(repro.Job{Workers: 2, Specs: []repro.AggSpec{{Kind: repro.AggSum}},
		Source: repro.RowShards(sk, sc)})
	check("cluster group by", err)
	if len(res.Groups) != len(want) {
		bug("cross-process GROUP BY lost or invented groups")
	}
	for i, g := range res.Groups {
		if g.Key != want[i].Key || math.Float64bits(g.Aggs[0]) != math.Float64bits(want[i].Sum) {
			bug("cross-process GROUP BY broke bit-reproducibility")
		}
	}
	fmt.Printf("%d groups, all bit-identical across process boundaries ✓\n", len(res.Groups))
	check("cluster close", c.Close())

	// The long-lived Cluster API: the same workers stay up across jobs,
	// a standby is kept warm, and a forced worker death mid-run is
	// healed by promotion + job re-ship — without disturbing the bits.
	c, err = repro.NewCluster(repro.ClusterSpec{
		Nodes:        3,
		SpawnStandby: 1,
		DieNode:      1, // node 1 kills itself before its first data frame (first life only)
		DieAfter:     1,
	})
	check("cluster", err)
	defer c.Close()

	res, err = c.Run(repro.Job{Workers: 2,
		Source: repro.ValueShards(shards)})
	check("cluster job 1", err)
	if math.Float64bits(res.Sum) != math.Float64bits(ref) {
		bug("worker replacement changed the sum bits")
	}
	fmt.Printf("elastic sum    : %016x, %d worker(s) replaced mid-run ✓\n",
		math.Float64bits(res.Sum), res.Replacements)

	// Job 2 on the healed cluster: SUM and COUNT over rows generated
	// here, dealt round-robin to three shards. A job always ships its
	// rows' bits, so every worker aggregates exactly these rows.
	specs := []repro.AggSpec{{Kind: repro.AggSum, Col: 0}, {Kind: repro.AggCount}}
	gk, gc := make([][]uint32, 3), make([][][]float64, 3)
	for i, v := range vals {
		s := i % 3
		gk[s] = append(gk[s], uint32(i*7919)%4096)
		if gc[s] == nil {
			gc[s] = make([][]float64, 1)
		}
		gc[s][0] = append(gc[s][0], v)
	}
	wantGroups, err := repro.DistributedAggregateByKey(gk, gc, 2, specs)
	check("in-process group by", err)
	res, err = c.Run(repro.Job{Workers: 2, Specs: specs, Source: repro.RowShards(gk, gc)})
	check("cluster job 2", err)
	if len(res.Groups) != len(wantGroups) {
		bug("the healed cluster's GROUP BY lost or invented groups")
	}
	for i, g := range res.Groups {
		for a, w := range wantGroups[i].Aggs {
			if g.Key != wantGroups[i].Key || math.Float64bits(g.Aggs[a]) != math.Float64bits(w) {
				bug("the healed cluster's GROUP BY broke bit-reproducibility")
			}
		}
	}
	fmt.Printf("generated rows : %d groups × %d aggregates, bit-identical to the in-process operator ✓\n",
		len(res.Groups), len(specs))
}

// check exits non-zero, naming the failed step, when err is set.
func check(step string, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, step+":", err)
		os.Exit(1)
	}
}

// bug exits non-zero, naming the bit-identity claim a run broke.
func bug(claim string) {
	fmt.Fprintln(os.Stderr, "BUG:", claim)
	os.Exit(1)
}
