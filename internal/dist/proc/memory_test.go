package proc

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sqlagg"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// TestClusterJobsReuseWorkerMemory runs jobs of changing shape on one
// cluster, so that every worker runs each job in the memory the last
// one left (jobMemory): input arrays, scatter targets, tables and
// payloads. Every result must carry the in-process plane's bytes. The
// sequence shrinks the input and changes the spec list (stale tails of
// the larger arrays and tables would show), switches to a reduction,
// starves one node of rows, fails a job on the cluster's message budget
// mid-protocol, and ends with the first job again. It runs on spawned
// workers (the real binary under REPROWORKER_BIN) and on WorkerMain
// goroutines, where the race detector sees the memory pass between a
// job's rows stream, its protocol goroutine and the next job.
func TestClusterJobsReuseWorkerMemory(t *testing.T) {
	// A 4 MiB message budget passes the first job's shuffle (about
	// 1.1 MiB per owner) and refuses the failing job's (about 7.5).
	cfg := matrixConfig()
	cfg.ReassemblyBudget = 4 << 20
	t.Run("spawned", func(t *testing.T) {
		c, err := NewCluster(ClusterSpec{Nodes: 2, JoinTimeout: 30 * time.Second, Config: cfg, Options: quietOpts()})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		defer c.Close()
		runChangingShapes(t, c)
	})
	t.Run("in-process", func(t *testing.T) { runChangingShapes(t, inProcessCluster(t, 2, cfg)) })
}

// runChangingShapes is TestClusterJobsReuseWorkerMemory's job sequence
// on a 2-node cluster c.
func runChangingShapes(t *testing.T, c *Cluster) {
	const nodes = 2

	// groupBy is a GROUP BY job over generated rows dealt to shards
	// (none for node 1 when starve), and the in-process plane's bytes.
	groupBy := func(seed uint64, rows int, groups uint32, ncols int, specs []sqlagg.AggSpec, starve bool) (Job, []byte) {
		keys := workload.Keys(seed, rows, groups)
		cols := make([][]float64, ncols)
		for col := range cols {
			cols[col] = workload.Values64(seed+1+uint64(col), rows, workload.MixedMag)
		}
		shardKeys, shardCols := tpch.ShardQ1Input(keys, cols, nodes)
		if starve {
			shardKeys, shardCols = [][]uint32{keys, nil}, [][][]float64{cols, nil}
		}
		want, err := dist.AggregateTuples(shardKeys, shardCols, 2, specs)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		return Job{Workers: 2, Specs: specs, Source: RowShards(shardKeys, shardCols)}, dist.EncodeTupleGroups(want, len(specs))
	}
	q1 := tpch.Q1Specs(core.DefaultLevels)
	first, firstWant := groupBy(1, 1<<16, 1<<13, 5, q1, false)
	small, smallWant := groupBy(2, 1000, 100, 2, []sqlagg.AggSpec{
		{Kind: sqlagg.AggVarPop, Col: 1}, {Kind: sqlagg.AggMin, Col: 0}, {Kind: sqlagg.AggMax, Col: 1},
	}, false)
	starved, starvedWant := groupBy(3, 5000, 1<<12, 5, q1, true)
	failing, _ := groupBy(4, 1<<18, 1<<16, 5, q1, false)

	vals := workload.Values64(5, 30000, workload.MixedMag)
	wantSum, err := dist.ReduceConfig([][]float64{vals}, 2, dist.Config{})
	if err != nil {
		t.Fatalf("reduce reference: %v", err)
	}

	check := func(name string, job Job, want []byte) {
		t.Helper()
		res, err := c.Run(job)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(res.Payload, want) {
			t.Fatalf("%s: result payload differs from the in-process plane's", name)
		}
	}
	check("Q1, 2^16 rows", first, firstWant)
	check("VAR/MIN/MAX, 1000 rows", small, smallWant)
	res, err := c.Run(Job{Workers: 2, Source: ValueShards(shardFloats(vals, nodes))})
	if err != nil {
		t.Fatalf("reduction: %v", err)
	}
	if math.Float64bits(res.Sum) != math.Float64bits(wantSum) {
		t.Fatalf("reduction: got %016x, want %016x", math.Float64bits(res.Sum), math.Float64bits(wantSum))
	}
	check("Q1, node 1 without rows", starved, starvedWant)
	if _, err := c.Run(failing); !errors.Is(err, dist.ErrChunkBudget) {
		t.Fatalf("job over the message budget: err = %v, want ErrChunkBudget", err)
	}
	check("Q1, 2^16 rows again", first, firstWant)
	if st := c.Stats(); st.Replaced != 0 {
		t.Errorf("%d workers replaced, want none", st.Replaced)
	}
}

// TestWorkerSteadyStateAlloc pins what a repeated identical job costs
// once the workers run it in the last one's memory: with supervisor and
// both workers in this process (WorkerMain goroutines), one Run of a
// 2^18-row × 5-column job into 2^14 groups allocated 21.1 MB on a
// 2-vCPU amd64 VM (Go 1.24), against 72.4 MB when every job allocated
// its own. What is left is mostly the transport's: encode and read
// buffers of frames above the pooled size, the receivers' retained
// payloads, the finalized and decoded groups, and the supervisor's row
// chunks. The bound is 1.5× the figure.
func TestWorkerSteadyStateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	job, _ := colsJob(t, 1<<18, 5, 1<<14)
	const measured = 21.1e6
	if got := allocPerRun(t, inProcessCluster(t, 2, dist.Config{}), job); float64(got) > 1.5*measured {
		t.Errorf("a repeated job allocates %.1f MB per Run, want <= %.1f (1.5 × the %.1f MB measured)",
			float64(got)/1e6, 1.5*measured/1e6, measured/1e6)
	}
}
