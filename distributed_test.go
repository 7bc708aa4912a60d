package repro_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro"
	"repro/internal/workload"
)

// TestDistributedSumMatchesSum: the simulated-cluster reduction carries
// exactly the bits of the single-machine Sum, for every cluster size.
func TestDistributedSumMatchesSum(t *testing.T) {
	const n = 30000
	vals := workload.Values64(21, n, workload.MixedMag)
	want := math.Float64bits(repro.Sum(vals))

	for _, nodes := range []int{1, 3, 16} {
		shards := make([][]float64, nodes)
		for i, v := range vals {
			shards[i%nodes] = append(shards[i%nodes], v)
		}
		got, err := repro.DistributedSum(shards, 2)
		if err != nil {
			t.Fatalf("DistributedSum(%d nodes): %v", nodes, err)
		}
		if math.Float64bits(got) != want {
			t.Fatalf("DistributedSum(%d nodes) = %016x, want %016x",
				nodes, math.Float64bits(got), want)
		}
	}
}

// TestDistributedSumChunkEdges: a node sums its shard in one chunk per
// worker (partition.EachChunk). One row runs one worker; nine rows in
// four chunks of three leave the fourth worker's state empty. Either way
// the bits are the one-worker bits. (Empty shards are
// internal/dist's TestReduceEmptyShards.)
func TestDistributedSumChunkEdges(t *testing.T) {
	for _, n := range []int{1, 9} {
		vals := workload.Values64(24, n, workload.MixedMag)
		shards := [][]float64{vals, vals[:n/2]}
		want, err := repro.DistributedSum(shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := repro.DistributedSum(shards, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d rows, 4 workers per node: %016x, one worker: %016x", n, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestDistributedGroupBySumMatchesGroupBySum: the distributed GROUP BY
// agrees bit-for-bit with the single-machine operator.
func TestDistributedGroupBySumMatchesGroupBySum(t *testing.T) {
	const n = 30000
	keys := workload.Keys(22, n, 500)
	vals := workload.Values64(23, n, workload.MixedMag)
	want := repro.GroupBySum(keys, vals, &repro.GroupByOptions{Groups: 500})

	for _, nodes := range []int{1, 5} {
		lk := make([][]uint32, nodes)
		lv := make([][]float64, nodes)
		for i := range keys {
			d := i % nodes
			lk[d] = append(lk[d], keys[i])
			lv[d] = append(lv[d], vals[i])
		}
		got, err := repro.DistributedGroupBySum(lk, lv, 2)
		if err != nil {
			t.Fatalf("DistributedGroupBySum(%d nodes): %v", nodes, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d nodes: %d groups, want %d", nodes, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key ||
				math.Float64bits(got[i].Sum) != math.Float64bits(want[i].Sum) {
				t.Fatalf("%d nodes: group[%d] = {%d, %016x}, want {%d, %016x}",
					nodes, i, got[i].Key, math.Float64bits(got[i].Sum),
					want[i].Key, math.Float64bits(want[i].Sum))
			}
		}
	}
}

// TestDistributedSumTransportOptions: the facade's transport-selecting
// options — TCP sockets, fault injection, straggler deadline — all
// carry exactly the bits of the single-machine Sum.
func TestDistributedSumTransportOptions(t *testing.T) {
	const n = 8000
	vals := workload.Values64(29, n, workload.MixedMag)
	want := math.Float64bits(repro.Sum(vals))

	shards := make([][]float64, 5)
	for i, v := range vals {
		shards[i%5] = append(shards[i%5], v)
	}
	optSets := map[string][]repro.DistOption{
		"chan-explicit": {repro.WithChanTransport()},
		"tcp":           {repro.WithTCPTransport()},
		"tcp+faults": {repro.WithTCPTransport(),
			repro.WithFaults(repro.FaultPlan{Seed: 7, DropProb: 0.3, DupProb: 0.3,
				MaxDelay: 200 * time.Microsecond, RetryDelay: 100 * time.Microsecond, Reorder: true}),
			repro.WithStragglerDeadline(10 * time.Millisecond)},
		"chan+faults": {repro.WithFaults(repro.FaultPlan{Seed: 8, DropProb: 0.4,
			RetryDelay: 100 * time.Microsecond}),
			repro.WithStragglerDeadline(10 * time.Millisecond)},
	}
	for name, opts := range optSets {
		t.Run(name, func(t *testing.T) {
			got, err := repro.DistributedSum(shards, 2, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != want {
				t.Fatalf("%016x, want %016x", math.Float64bits(got), want)
			}
		})
	}
}

// TestDistributedGroupBySumOverTCP: the GROUP BY shuffle over real
// sockets with faults matches the single-machine operator bit for bit.
func TestDistributedGroupBySumOverTCP(t *testing.T) {
	const n = 10000
	keys := workload.Keys(31, n, 300)
	vals := workload.Values64(32, n, workload.MixedMag)
	want := repro.GroupBySum(keys, vals, &repro.GroupByOptions{Groups: 300})

	lk := make([][]uint32, 4)
	lv := make([][]float64, 4)
	for i := range keys {
		d := i % 4
		lk[d] = append(lk[d], keys[i])
		lv[d] = append(lv[d], vals[i])
	}
	got, err := repro.DistributedGroupBySum(lk, lv, 2,
		repro.WithTCPTransport(),
		repro.WithFaults(repro.FaultPlan{Seed: 11, DupProb: 0.4, MaxDelay: 200 * time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || math.Float64bits(got[i].Sum) != math.Float64bits(want[i].Sum) {
			t.Fatalf("group[%d] mismatch over TCP with faults", i)
		}
	}
}

// TestDistributedChunkedOptions: the facade's chunking options — a
// chunk payload small enough that every message travels multi-chunk,
// over TCP with a hostile fault plan — change nothing about the result
// bits, and an undersized reassembly budget surfaces ErrChunkBudget.
func TestDistributedChunkedOptions(t *testing.T) {
	const n = 9000
	keys := workload.Keys(81, n, 700)
	vals := workload.Values64(82, n, workload.MixedMag)
	want := repro.GroupBySum(keys, vals, &repro.GroupByOptions{Groups: 700})

	lk := make([][]uint32, 3)
	lv := make([][]float64, 3)
	for i := range keys {
		d := i % 3
		lk[d] = append(lk[d], keys[i])
		lv[d] = append(lv[d], vals[i])
	}
	got, err := repro.DistributedGroupBySum(lk, lv, 2,
		repro.WithTCPTransport(),
		repro.WithMaxChunkPayload(2048),
		repro.WithFaults(repro.FaultPlan{Seed: 13, DropProb: 0.2, DupProb: 0.2, Reorder: true,
			MaxDelay: 200 * time.Microsecond, RetryDelay: 100 * time.Microsecond}),
		repro.WithStragglerDeadline(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || math.Float64bits(got[i].Sum) != math.Float64bits(want[i].Sum) {
			t.Fatalf("group[%d] mismatch under chunked TCP with faults", i)
		}
	}

	// A reassembly budget below the shuffle payload size fails loudly
	// with the matchable sentinel instead of hanging or truncating.
	_, err = repro.DistributedGroupBySum(lk, lv, 2,
		repro.WithMaxChunkPayload(1024),
		repro.WithReassemblyBudget(8<<10))
	if !errors.Is(err, repro.ErrChunkBudget) {
		t.Fatalf("got %v, want ErrChunkBudget", err)
	}
}

// TestDistributedSumErrors: the facade surfaces the dist error paths
// as matchable re-exported sentinels.
func TestDistributedSumErrors(t *testing.T) {
	if _, err := repro.DistributedSum(nil, 1); !errors.Is(err, repro.ErrNoShards) {
		t.Errorf("empty cluster: got %v, want ErrNoShards", err)
	}
	if _, err := repro.DistributedSum([][]float64{{1}}, 0); !errors.Is(err, repro.ErrWorkers) {
		t.Errorf("zero workers: got %v, want ErrWorkers", err)
	}
	if _, err := repro.DistributedGroupBySum([][]uint32{{1}}, [][]float64{{1}, {2}}, 1); !errors.Is(err, repro.ErrShardMismatch) {
		t.Errorf("mismatched shards: got %v, want ErrShardMismatch", err)
	}
}
