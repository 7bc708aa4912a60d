package repro

import "repro/internal/dist/proc"

// The cluster API: a long-lived handle over a real multi-process
// cluster that runs a sequence of typed aggregation jobs with
// bit-identical results to the in-process engine. It is the only way
// to run a job across processes — the distributed operators
// (DistributedSum, DistributedGroupBySum, DistributedAggregateByKey)
// always run their nodes as goroutines of the calling process. A
// cluster keeps its worker processes, sockets, and handshakes alive
// across jobs, admits operator-started workers (reproworker -join),
// and survives worker death mid-run: a dead member's slot goes to a
// standby or the next joiner, and a job nobody rescues within
// ClusterSpec.JoinTimeout fails with a recovery error while the
// cluster stays usable.

// ErrClusterClosed is returned by Cluster.Run on a closed cluster.
var ErrClusterClosed = proc.ErrClusterClosed

// ClusterSpec configures NewCluster: the cluster size, how many of the
// workers operators start rather than the supervisor, standby capacity
// for mid-run replacement, the control listen address, and liveness
// timing. Every field is validated at construction with a typed
// ErrConfig naming the field.
type ClusterSpec = proc.ClusterSpec

// ClusterOptions configures worker spawning: stderr routing and the
// forced socket-kill scenario. The worker binary is REPROWORKER_BIN
// when set, else the current binary re-executed (see
// InitWorkerProcess); workers inherit the caller's environment.
type ClusterOptions = proc.Options

// Cluster is a long-lived multi-process cluster accepting Jobs. It is
// safe for concurrent use; jobs submitted while one is running queue
// in arrival order. Construct with NewCluster, release with Close.
type Cluster = proc.Cluster

// Job is one unit of cluster work: a reduction (no Specs) or a
// multi-aggregate GROUP BY (one output column per AggSpec), over an
// input Source, with per-node engine parallelism Workers.
type Job = proc.Job

// JobResult is one finished Job: the canonical result bytes plus the
// decoded sum (reductions) or groups (GROUP BY), and how many workers
// had to be replaced mid-run to produce it (always with bit-identical
// results — that is the point).
type JobResult = proc.Result

// ClusterStats is a point-in-time snapshot of a cluster's membership
// counters.
type ClusterStats = proc.ClusterStats

// Source is a Job's input: the rows themselves, as shards (ValueShards,
// RowShards). They are streamed to the workers behind the job
// dispatch, encoded straight from the caller's slices, which are
// therefore read by reference and must not be modified until Run
// returns. A job ships the bits of its input, never a recipe for
// them, so every worker aggregates exactly the rows the caller holds.
type Source = proc.Source

// ValueShards is a reduction input: one value slice per shard.
// Shard i goes to node i mod Nodes (reproducibility makes the dealing
// invisible in the bits); the slices are read until Run returns.
func ValueShards(shards [][]float64) Source { return proc.ValueShards(shards) }

// RowShards is a GROUP BY input: shardKeys[i] holds shard i's keys
// and shardCols[i][c] its c-th value column, dealt and read like
// ValueShards.
func RowShards(shardKeys [][]uint32, shardCols [][][]float64) Source {
	return proc.RowShards(shardKeys, shardCols)
}

// NewCluster forms a cluster: listens on spec.Addr, starts
// spec.Nodes−spec.Join+spec.SpawnStandby local workers as joiners of
// that address, and admits every arrival — its own or an operator's
// `reproworker -join` — through the one handshake (a join hello carrying
// the frame codec version, rsum level count and control-plane spec
// version, answered by the run configuration), slots going out in
// arrival order. The distributed interconnect options (WithMaxChunkPayload,
// WithFaults, WithStragglerDeadline, …) configure the data plane of
// every job the cluster runs and travel in the configuration every
// member is sent; WithTCPTransport/WithChanTransport are ignored (a process
// cluster always speaks real sockets).
func NewCluster(spec ClusterSpec, opts ...DistOption) (*Cluster, error) {
	for _, o := range opts {
		o(&spec.Config)
	}
	return proc.NewCluster(spec)
}
