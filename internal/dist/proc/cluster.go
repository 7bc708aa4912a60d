// Package proc is the multi-process cluster runtime of the
// reproducible aggregation engine: it runs the exact protocols of
// internal/dist — the topology-parameterized reduction and the hash
// shuffle GROUP BY, chunked wire format v2, per-chunk resend recovery
// and all — across genuinely separate worker OS processes connected by
// real TCP sockets.
//
// The core abstraction is the elastic Cluster (elastic.go): a
// long-lived supervisor that forms its worker set from whoever joins
// its control address (reproworker -join) — processes it started
// itself and processes an operator started elsewhere are admitted
// through one handshake (join hello, KindConf, digested full hello)
// and take slots in arrival order; runs a sequence of typed Jobs whose
// inputs are raw shards streamed to the workers in cache-sized chunks
// or declarative sources the workers materialize locally; and — with
// ReplaceDead — survives worker death mid-run by admitting a substitute
// through that same handshake, re-shipping the lost job spec and rows,
// and re-pointing the surviving peers' reconnect-safe transports. The result is bit-identical to the
// in-process engine for every topology, cluster size, chunk regime,
// fault plan, forced socket kill, and mid-run replacement — the
// paper's reproducibility claim extended to its hardest setting:
// separate processes with nothing shared but the wire, some of them
// dying halfway through.
//
// Reduce, AggregateByKey, and AggregateTuples below are the original
// one-shot entry points, kept as thin wrappers: each forms a cluster,
// runs a single raw-shard job, and tears the cluster down, preserving
// the exact validation order and failure surface they always had.
package proc

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sqlagg"
)

// Options configures the supervisor side of a multi-process run. The
// zero value spawns workers by re-executing the current binary (which
// must call MaybeWorkerMain early in main) and is the configuration
// the facade uses.
type Options struct {
	// WorkerPath is an explicit reproworker binary to spawn. Empty
	// means: the REPROWORKER_BIN environment variable if set, else
	// re-execute the current binary with the worker marker set.
	WorkerPath string
	// Env is appended to each worker's environment (test hook: the
	// handshake-rejection tests force mismatched hellos through it).
	Env []string
	// LogWriter receives the workers' stderr (default os.Stderr).
	LogWriter io.Writer
	// JoinTimeout bounds the whole join phase: spawn through last
	// handshake (default 15s).
	JoinTimeout time.Duration
	// KillConnNode / KillConnAfter force the socket-kill-and-reconnect
	// scenario: node KillConnNode severs all its outgoing data-plane
	// connections once, just before its KillConnAfter-th data frame.
	// KillConnAfter == 0 disables. Recovery must be invisible in the
	// result bits; TestProcKillReconnectEquivalence asserts exactly
	// that.
	KillConnNode  int
	KillConnAfter int
}

func (o Options) joinTimeout() time.Duration {
	if o.JoinTimeout <= 0 {
		return 15 * time.Second
	}
	return o.JoinTimeout
}

func (o Options) logWriter() io.Writer {
	if o.LogWriter == nil {
		return os.Stderr
	}
	return o.LogWriter
}

// clusterSize resolves the worker-process count: an explicit
// cfg.Procs, else one process per shard.
func clusterSize(cfg dist.Config, shards int) int {
	if cfg.Procs > 0 {
		return cfg.Procs
	}
	return shards
}

// runOneShot is the shared tail of the one-shot wrappers: form a
// cluster, run the single job, tear the cluster down. A run error
// outranks a teardown error (the former usually causes the latter).
func runOneShot(n int, cfg dist.Config, opt Options, job Job) (*Result, error) {
	c, err := NewCluster(ClusterSpec{
		Nodes:       n,
		JoinTimeout: opt.joinTimeout(),
		Config:      cfg,
		Options:     opt,
	})
	if err != nil {
		return nil, err
	}
	res, err := c.Run(job)
	cerr := c.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	return res, nil
}

// Reduce computes the reproducible global SUM across a cluster of
// spawned worker processes — the multi-process counterpart of
// dist.ReduceConfig, bit-identical to it (and to every in-process
// transport) by construction. When cfg.Procs differs from len(shards),
// the shards are re-dealt round-robin across the cfg.Procs worker
// nodes; reproducibility makes any re-dealing invisible in the bits.
func Reduce(shards [][]float64, workers int, topo dist.Topology, cfg dist.Config, opt Options) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if len(shards) == 0 {
		return 0, dist.ErrNoShards
	}
	if workers < 1 {
		return 0, fmt.Errorf("%w (got %d)", dist.ErrWorkers, workers)
	}
	if !topo.Valid() {
		return 0, fmt.Errorf("%w (got %d)", dist.ErrTopology, int(topo))
	}
	res, err := runOneShot(clusterSize(cfg, len(shards)), cfg, opt, Job{
		Topo:    topo,
		Workers: workers,
		Source:  ValueShards(shards),
	})
	if err != nil {
		return 0, err
	}
	return res.Sum, nil
}

// AggregateByKey computes the reproducible distributed GROUP BY SUM
// across spawned worker processes — the multi-process counterpart of
// dist.AggregateByKeyConfig, bit-identical to it for every sharding,
// topology of arrival, chunk regime, and injected failure. It is the
// single-aggregate special case of AggregateTuples.
func AggregateByKey(shardKeys [][]uint32, shardVals [][]float64, workers int, cfg dist.Config, opt Options) ([]dist.Group, error) {
	if len(shardVals) != len(shardKeys) {
		return nil, fmt.Errorf("%w: %d key shards vs %d value shards",
			dist.ErrShardMismatch, len(shardKeys), len(shardVals))
	}
	shardCols := make([][][]float64, len(shardVals))
	for i, vals := range shardVals {
		shardCols[i] = [][]float64{vals}
	}
	specs := []sqlagg.AggSpec{{Kind: sqlagg.AggSum, Levels: core.DefaultLevels, Col: 0}}
	tuples, err := AggregateTuples(shardKeys, shardCols, workers, specs, cfg, opt)
	if err != nil {
		return nil, err
	}
	groups := make([]dist.Group, len(tuples))
	for i, t := range tuples {
		groups[i] = dist.Group{Key: t.Key, Sum: t.Aggs[0]}
	}
	return groups, nil
}

// AggregateTuples computes a reproducible distributed multi-aggregate
// GROUP BY across spawned worker processes — the multi-process
// counterpart of dist.AggregateTuplesConfig, bit-identical to it for
// every sharding, chunk regime, and injected failure. Each shard
// carries its keys plus one value column per distinct column the
// aggregate catalog reads; the catalog travels in the job spec of the
// versioned control plane, and the cluster config is digested into the
// join handshake, so a mismatched worker is rejected at admission.
func AggregateTuples(shardKeys [][]uint32, shardCols [][][]float64, workers int, specs []sqlagg.AggSpec, cfg dist.Config, opt Options) ([]dist.TupleGroup, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(shardKeys) == 0 {
		return nil, dist.ErrNoShards
	}
	if len(shardCols) != len(shardKeys) {
		return nil, fmt.Errorf("%w: %d key shards vs %d column shards",
			dist.ErrShardMismatch, len(shardKeys), len(shardCols))
	}
	if err := dist.ValidateShardColumns(shardKeys, shardCols, specs); err != nil {
		return nil, err
	}
	if workers < 1 {
		return nil, fmt.Errorf("%w (got %d)", dist.ErrWorkers, workers)
	}
	res, err := runOneShot(clusterSize(cfg, len(shardKeys)), cfg, opt, Job{
		Workers: workers,
		Specs:   specs,
		Source:  RowShards(shardKeys, shardCols),
	})
	if err != nil {
		return nil, err
	}
	return res.Groups, nil
}

// resolveWorker picks the worker binary: explicit option, then the
// REPROWORKER_BIN environment variable, then re-executing the current
// binary (whose main must call MaybeWorkerMain).
func resolveWorker(opt Options) (path string, reexec bool, err error) {
	if opt.WorkerPath != "" {
		return opt.WorkerPath, false, nil
	}
	if p := os.Getenv("REPROWORKER_BIN"); p != "" {
		return p, false, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return "", false, fmt.Errorf("proc: no reproworker binary configured and the current executable is unknown: %w", err)
	}
	return exe, true, nil
}

// verifyHello checks a worker's full handshake against this
// supervisor's build and run configuration. Every mismatch is an
// ErrHandshake.
func verifyHello(h hello, wantDigest uint64) error {
	if err := verifyJoinHello(h); err != nil {
		return err
	}
	if h.flags&helloHasDigest == 0 {
		return fmt.Errorf("%w: worker sent a config-less hello where a digested one was due", dist.ErrHandshake)
	}
	if h.digest != wantDigest {
		return fmt.Errorf("%w: worker run-config digest %016x, supervisor's is %016x — the cluster would not agree on the run",
			dist.ErrHandshake, h.digest, wantDigest)
	}
	return nil
}

// verifyJoinHello checks the config-independent half of a handshake —
// all a remote joiner can promise before it is handed the cluster
// config.
func verifyJoinHello(h hello) error {
	if h.version != dist.FrameVersion {
		return fmt.Errorf("%w: worker speaks frame version %d, supervisor speaks %d",
			dist.ErrHandshake, h.version, dist.FrameVersion)
	}
	if h.levels != core.DefaultLevels {
		return fmt.Errorf("%w: worker compiled with %d rsum levels, supervisor with %d — partial states would not merge",
			dist.ErrHandshake, h.levels, core.DefaultLevels)
	}
	if h.specver != specVersion {
		return fmt.Errorf("%w: worker speaks control-plane spec v%d, supervisor speaks v%d",
			dist.ErrHandshake, h.specver, specVersion)
	}
	return nil
}

// exitErr folds a nil cmd.Wait error into something printable.
func exitErr(err error) error {
	if err == nil {
		return errors.New("exit status 0")
	}
	return err
}
