package repro_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/workload"
)

func clusterQuiet() repro.ClusterSpec {
	return repro.ClusterSpec{JoinTimeout: 30 * time.Second}
}

// TestClusterFacadeSumCompat: the in-process DistributedSum and the
// same reduction as a Cluster job produce identical bits.
func TestClusterFacadeSumCompat(t *testing.T) {
	const n = 8000
	vals := workload.Values64(53, n, workload.MixedMag)
	shards := make([][]float64, 3)
	for i, v := range vals {
		shards[i%3] = append(shards[i%3], v)
	}

	old, err := repro.DistributedSum(shards, 2)
	if err != nil {
		t.Fatalf("in-process: %v", err)
	}

	spec := clusterQuiet()
	spec.Nodes = 3
	c, err := repro.NewCluster(spec)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	res, err := c.Run(repro.Job{Workers: 2, Source: repro.ValueShards(shards)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if math.Float64bits(res.Sum) != math.Float64bits(old) {
		t.Errorf("cluster sum = %016x, in-process = %016x", math.Float64bits(res.Sum), math.Float64bits(old))
	}
	if want := math.Float64bits(repro.Sum(vals)); math.Float64bits(res.Sum) != want {
		t.Errorf("cluster sum = %016x, local Sum = %016x", math.Float64bits(res.Sum), want)
	}
}

// TestClusterFacadeGroupByCompat: DistributedAggregateByKey and a
// Cluster GROUP BY job agree byte for byte on the canonical encoding.
func TestClusterFacadeGroupByCompat(t *testing.T) {
	keys, cols := workload.Keys(59, 8000, 512), [][]float64{workload.Values64(61, 8000, workload.MixedMag)}
	specs := []repro.AggSpec{{Kind: repro.AggSum, Col: 0}, {Kind: repro.AggCount}}

	sk := make([][]uint32, 2)
	sc := make([][][]float64, 2)
	for i := range sk {
		sc[i] = make([][]float64, 1)
	}
	for i, k := range keys {
		sk[i%2] = append(sk[i%2], k)
		sc[i%2][0] = append(sc[i%2][0], cols[0][i])
	}
	old, err := repro.DistributedAggregateByKey(sk, sc, 2, specs)
	if err != nil {
		t.Fatalf("in-process: %v", err)
	}
	want := dist.EncodeTupleGroups(old, len(specs))

	spec := clusterQuiet()
	spec.Nodes = 2
	c, err := repro.NewCluster(spec)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	res, err := c.Run(repro.Job{Workers: 2, Specs: specs, Source: repro.RowShards(sk, sc)})
	if err != nil {
		t.Fatalf("raw-shard run: %v", err)
	}
	if !bytes.Equal(res.Payload, want) {
		t.Error("raw-shard cluster payload differs from the in-process operator's encoding")
	}
}

// TestServeOverCluster: a server backed by a live Cluster handle
// serves byte-identical results to the local and in-process
// distributed backends.
func TestServeOverCluster(t *testing.T) {
	keys := workload.Keys(67, 6000, 256)
	cols := [][]float64{workload.Values64(71, 6000, workload.MixedMag), workload.Values64(73, 6000, workload.Exp1)}
	ds, err := repro.NewServeDataset(keys, cols, repro.ServeDatasetOptions{Shards: 3})
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	q := repro.GroupByQuery(
		repro.AggSpec{Kind: repro.AggSum, Col: 0},
		repro.AggSpec{Kind: repro.AggAvg, Col: 1},
		repro.AggSpec{Kind: repro.AggCount},
	)

	local, err := repro.NewServer(ds, repro.ServerOptions{})
	if err != nil {
		t.Fatalf("local server: %v", err)
	}
	defer local.Close()
	lres, err := local.Do(q)
	if err != nil {
		t.Fatalf("local query: %v", err)
	}

	spec := clusterQuiet()
	spec.Nodes = 3
	c, err := repro.NewCluster(spec)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	srv, err := repro.NewServer(ds, repro.ServerOptions{Cluster: c})
	if err != nil {
		t.Fatalf("cluster server: %v", err)
	}
	defer srv.Close()
	cres, err := srv.Do(q)
	if err != nil {
		t.Fatalf("cluster query: %v", err)
	}
	if !bytes.Equal(cres.Bytes, lres.Bytes) {
		t.Error("cluster-served bytes differ from the local engine's")
	}

	// The same cluster keeps serving: a second query (cache off-path
	// via different specs) still matches the local engine.
	q2 := repro.GroupByQuery(repro.AggSpec{Kind: repro.AggMax, Col: 1})
	lres2, err := local.Do(q2)
	if err != nil {
		t.Fatalf("local query 2: %v", err)
	}
	cres2, err := srv.Do(q2)
	if err != nil {
		t.Fatalf("cluster query 2: %v", err)
	}
	if !bytes.Equal(cres2.Bytes, lres2.Bytes) {
		t.Error("second cluster-served result differs from the local engine's")
	}
}

// TestClusterFacadeValidation: ClusterSpec fields and the remaining
// DistOptions reject invalid values with ErrConfig naming the field.
func TestClusterFacadeValidation(t *testing.T) {
	specCases := []struct {
		name string
		mut  func(*repro.ClusterSpec)
		want string
	}{
		{"no nodes", func(s *repro.ClusterSpec) {}, "ClusterSpec.Nodes"},
		{"join exceeds nodes", func(s *repro.ClusterSpec) { s.Nodes, s.Join = 2, 3 }, "ClusterSpec.Join"},
		{"liveness shorter than two default heartbeats", func(s *repro.ClusterSpec) { s.Nodes, s.Liveness = 1, 900*time.Millisecond }, "ClusterSpec.Heartbeat"},
		{"negative standby", func(s *repro.ClusterSpec) { s.Nodes, s.SpawnStandby = 1, -1 }, "ClusterSpec.SpawnStandby"},
	}
	for _, tc := range specCases {
		t.Run(tc.name, func(t *testing.T) {
			spec := clusterQuiet()
			tc.mut(&spec)
			_, err := repro.NewCluster(spec)
			if !errors.Is(err, repro.ErrConfig) {
				t.Fatalf("err = %v, want ErrConfig", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %q does not name %q", err, tc.want)
			}
		})
	}

	optCases := []struct {
		name string
		opt  repro.DistOption
		want string
	}{
		{"negative straggler deadline", repro.WithStragglerDeadline(-time.Second), "WithStragglerDeadline"},
		{"drop probability over 1", repro.WithFaults(repro.FaultPlan{DropProb: 1.5}), "WithFaults"},
		{"negative dup probability", repro.WithFaults(repro.FaultPlan{DupProb: -0.1}), "WithFaults"},
		{"negative fault delay", repro.WithFaults(repro.FaultPlan{MaxDelay: -time.Millisecond}), "WithFaults"},
		{"poisoned chunk payload", repro.WithMaxChunkPayload(0), "WithMaxChunkPayload"},
		{"poisoned reassembly budget", repro.WithReassemblyBudget(-1), "WithReassemblyBudget"},
	}
	for _, tc := range optCases {
		t.Run(tc.name, func(t *testing.T) {
			// The same config validation runs in every entry point:
			// one-shot operators and cluster construction alike.
			if _, err := repro.DistributedSum([][]float64{{1}}, 1, tc.opt); !errors.Is(err, repro.ErrConfig) {
				t.Fatalf("DistributedSum: err = %v, want ErrConfig", err)
			}
			spec := clusterQuiet()
			spec.Nodes = 1
			_, err := repro.NewCluster(spec, tc.opt)
			if !errors.Is(err, repro.ErrConfig) {
				t.Fatalf("NewCluster: err = %v, want ErrConfig", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %q does not name %q", err, tc.want)
			}
		})
	}
}
