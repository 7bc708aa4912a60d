// Distributed: reproducible aggregation across a simulated cluster —
// the MIMD setting the summation algorithm was designed for (paper
// §III-D: local summation per process, global MPI_Reduce). Partial
// aggregates travel between "nodes" as serialized canonical states, and
// the final answer is bit-identical for every cluster size and
// (nondeterministic) message arrival order — and, since
// the message layer is a pluggable transport, for in-process channels
// and real TCP sockets alike, even with faults (delay, duplication,
// reordering, dropped-then-retried frames) injected into the link. It
// exits non-zero if any result's bits differ from the first one's.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/dist"
	"repro/internal/workload"
)

func main() {
	const n = 200000
	vals := workload.Values64(7, n, workload.MixedMag)

	// The reduction runs over in-process channels and over real TCP
	// sockets on loopback — one listener per node, length-prefixed
	// CRC-checked frames — each also with a hostile fault plan injected
	// into the link. The bits cannot move.
	chaos := &dist.FaultPlan{
		Seed: 42, DropProb: 0.3, DupProb: 0.3, Reorder: true,
		MaxDelay: 500 * time.Microsecond, RetryDelay: 200 * time.Microsecond,
	}
	transports := []struct {
		name string
		cfg  dist.Config
	}{
		{"chan", dist.Config{}},
		{"chan+faults", dist.Config{Faults: chaos, ChildDeadline: 5 * time.Millisecond}},
		{"tcp", dist.Config{NewTransport: dist.TCPTransportFactory}},
		{"tcp+faults", dist.Config{NewTransport: dist.TCPTransportFactory,
			Faults: chaos, ChildDeadline: 5 * time.Millisecond}},
	}

	fmt.Printf("global SUM of %d mixed-magnitude values across simulated clusters:\n\n", n)
	fmt.Println("nodes  transport    result (hex bits)   result")
	var ref uint64
	haveRef := false
	// mark tallies a result whose bits differ from the reference.
	mismatches := 0
	mark := func(same bool) string {
		if same {
			return ""
		}
		mismatches++
		return "  <-- MISMATCH"
	}
	for _, nodes := range []int{1, 4, 16, 61} {
		shards := make([][]float64, nodes)
		for i, v := range vals {
			shards[i%nodes] = append(shards[i%nodes], v)
		}
		for _, tr := range transports {
			sum, err := dist.ReduceConfig(shards, 2, tr.cfg)
			if err != nil {
				panic(err)
			}
			bits := math.Float64bits(sum)
			if !haveRef {
				ref, haveRef = bits, true
			}
			fmt.Printf("%5d  %-11s  %016x    %.17g%s\n", nodes, tr.name, bits, sum, mark(bits == ref))
		}
	}
	fmt.Println("\nEvery row above carries the same bits: the reduction is reproducible")
	fmt.Println("for any cluster size, transport and fault plan.")

	// Distributed GROUP BY with hash shuffle.
	keys := workload.Keys(8, n, 1000)
	fmt.Printf("\ndistributed GROUP BY SUM (%d rows, 1000 groups):\n", n)
	var refSum float64
	haveRefSum := false
	for _, nodes := range []int{2, 7} {
		lk := make([][]uint32, nodes)
		lv := make([][]float64, nodes)
		for i := range keys {
			d := i % nodes
			lk[d] = append(lk[d], keys[i])
			lv[d] = append(lv[d], vals[i])
		}
		out, err := dist.AggregateByKey(lk, lv, 2)
		if err != nil {
			panic(err)
		}
		for _, g := range out {
			if g.Key == 0 {
				if !haveRefSum {
					refSum, haveRefSum = g.Sum, true
				}
				same := math.Float64bits(g.Sum) == math.Float64bits(refSum)
				fmt.Printf("  %d nodes: group 0 = %.17g (bits equal across cluster sizes: %v)%s\n",
					nodes, g.Sum, same, mark(same))
			}
		}
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "BUG: %d result(s) broke bit-reproducibility\n", mismatches)
		os.Exit(1)
	}
}
