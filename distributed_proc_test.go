package repro_test

import (
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"repro"
	"repro/internal/dist/proc"
	"repro/internal/workload"
)

// TestMain arms the multi-process facade tests: when this test binary
// is re-executed as a worker spawned by NewCluster (its default spawn
// mode without REPROWORKER_BIN), it becomes that worker instead of
// running the tests.
func TestMain(m *testing.M) {
	proc.MaybeWorkerMain()
	os.Exit(m.Run())
}

// TestDistributedSumProcessCluster: a reduction job on a NewCluster
// carries exactly the bits of the single-machine Sum across real
// worker processes.
func TestDistributedSumProcessCluster(t *testing.T) {
	const n = 8000
	vals := workload.Values64(37, n, workload.MixedMag)
	want := math.Float64bits(repro.Sum(vals))

	shards := make([][]float64, 3)
	for i, v := range vals {
		shards[i%3] = append(shards[i%3], v)
	}
	c, err := repro.NewCluster(repro.ClusterSpec{Nodes: 3},
		repro.WithStragglerDeadline(250*time.Millisecond))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	res, err := c.Run(repro.Job{Workers: 2, Source: repro.ValueShards(shards)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if math.Float64bits(res.Sum) != want {
		t.Errorf("process cluster sum = %016x, want %016x", math.Float64bits(res.Sum), want)
	}
}

// TestDistributedGroupBySumProcessCluster: the multi-process GROUP BY,
// forced into multi-chunk shuffle streams, matches the single-machine
// GroupBySum bit for bit.
func TestDistributedGroupBySumProcessCluster(t *testing.T) {
	const n = 8000
	vals := workload.Values64(41, n, workload.MixedMag)
	keys := workload.Keys(43, n, 512)
	want := repro.GroupBySum(keys, vals, nil)

	sk := make([][]uint32, 2)
	sc := [][][]float64{{nil}, {nil}}
	for i := range keys {
		sk[i%2] = append(sk[i%2], keys[i])
		sc[i%2][0] = append(sc[i%2][0], vals[i])
	}
	c, err := repro.NewCluster(repro.ClusterSpec{Nodes: 2},
		repro.WithMaxChunkPayload(2048), repro.WithStragglerDeadline(250*time.Millisecond))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	res, err := c.Run(repro.Job{Workers: 2, Specs: []repro.AggSpec{{Kind: repro.AggSum}},
		Source: repro.RowShards(sk, sc)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := res.Groups
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || math.Float64bits(got[i].Aggs[0]) != math.Float64bits(want[i].Sum) {
			t.Fatalf("group %d: (%d, %016x), want (%d, %016x)",
				i, got[i].Key, math.Float64bits(got[i].Aggs[0]), want[i].Key, math.Float64bits(want[i].Sum))
		}
	}
}

// TestDistOptionValidation: non-positive option arguments fail the
// operation immediately with ErrConfig — at the call that made the
// mistake, not deep inside a run.
func TestDistOptionValidation(t *testing.T) {
	shards := [][]float64{{1, 2}, {3}}
	keys := [][]uint32{{1, 2}, {3}}
	cases := []struct {
		name string
		opt  repro.DistOption
	}{
		{"WithMaxChunkPayload(0)", repro.WithMaxChunkPayload(0)},
		{"WithMaxChunkPayload(-4096)", repro.WithMaxChunkPayload(-4096)},
		{"WithReassemblyBudget(0)", repro.WithReassemblyBudget(0)},
		{"WithReassemblyBudget(-1)", repro.WithReassemblyBudget(-1)},
		{"WithStragglerDeadline(0)", repro.WithStragglerDeadline(0)},
		{"WithStragglerDeadline(-time.Millisecond)", repro.WithStragglerDeadline(-time.Millisecond)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := repro.DistributedSum(shards, 1, tc.opt); !errors.Is(err, repro.ErrConfig) {
				t.Errorf("DistributedSum: err = %v, want ErrConfig", err)
			}
			if _, err := repro.DistributedGroupBySum(keys, shards, 1, tc.opt); !errors.Is(err, repro.ErrConfig) {
				t.Errorf("DistributedGroupBySum: err = %v, want ErrConfig", err)
			}
		})
	}

	// Worker counts are validated the same way they always were —
	// before anything runs.
	if _, err := repro.DistributedSum(shards, 0); !errors.Is(err, repro.ErrWorkers) {
		t.Errorf("workers=0: err = %v, want ErrWorkers", err)
	}
}
