// Package repro provides bit-reproducible floating-point aggregation for
// data management systems, implementing "Reproducible Floating-Point
// Aggregation in RDBMSs" (Müller, Arteaga, Hoefler, Alonso; ICDE 2018).
//
// Floating-point addition is not associative, so the result of SUM and
// GROUPBY SUM in most systems depends on the physical order of the data,
// the number of threads, and the shape of the merge tree. This package
// makes those operations bit-reproducible: any execution over the same
// multiset of ⟨key, value⟩ pairs produces results that are identical in
// every bit, while staying within about 2× of the performance of plain
// floating-point aggregation (and improving accuracy at the same time).
//
// # Quick start
//
//	total := repro.Sum(values)                  // reproducible SUM
//	groups := repro.GroupBySum(keys, values, nil) // reproducible GROUPBY
//
// # Accumulators
//
// Accumulator (float64) and Accumulator32 (float32) are drop-in
// replacements for a running sum: Add values in any order, Merge partial
// accumulators across goroutines in any tree shape, and Value returns
// the same bits every time. BufferedAccumulator adds the paper's
// summation buffer, which batches values per group and aggregates them
// with a vectorized kernel — the configuration that brings GROUPBY
// overhead down to ≈ 2× (and to ≈ 3% of end-to-end query time).
//
// # Precision levels
//
// The Levels parameter L controls accuracy: L = 2 matches the accuracy
// of conventional IEEE summation, L = 3 is far more accurate, at a cost
// growing roughly linearly in L. DefaultLevels is 2.
package repro

import (
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/proc"
	"repro/internal/exact"
	"repro/internal/rsum"
	"repro/internal/sqlagg"
)

// DefaultLevels is the default number of summation levels (L = 2,
// accuracy comparable to conventional IEEE summation).
const DefaultLevels = core.DefaultLevels

// MaxLevels is the largest supported level count.
const MaxLevels = core.MaxLevels

// Accumulator is a bit-reproducible, associative float64 accumulator.
// The zero value is not usable; construct with NewAccumulator.
// Not safe for concurrent use: give each goroutine its own accumulator
// and Merge them (the merged result is independent of the merge order).
type Accumulator = core.Sum64

// NewAccumulator returns an empty accumulator with the given number of
// summation levels (1 ≤ levels ≤ MaxLevels); use DefaultLevels when in
// doubt.
func NewAccumulator(levels int) Accumulator { return core.NewSum64(levels) }

// Accumulator32 is the float32 accumulator.
type Accumulator32 = core.Sum32

// NewAccumulator32 returns an empty float32 accumulator.
func NewAccumulator32(levels int) Accumulator32 { return core.NewSum32(levels) }

// BufferedAccumulator is an accumulator with a summation buffer: values
// are buffered and folded in batches by a vectorized kernel, trading
// memory (bsz float64 slots) for roughly 2–6× faster accumulation.
// It produces exactly the same bits as Accumulator.
type BufferedAccumulator = core.Buffered64

// NewBufferedAccumulator returns an empty buffered accumulator with the
// given level count and buffer size. BufferSizeFor picks a good buffer
// size for a known group count.
func NewBufferedAccumulator(levels, bufferSize int) BufferedAccumulator {
	return core.NewBuffered64(levels, bufferSize)
}

// State is the serializable summation state underlying Accumulator,
// exposed for systems that ship partial aggregates between nodes.
// It implements encoding.BinaryMarshaler / BinaryUnmarshaler with a
// canonical encoding (equal states encode to equal bytes).
type State = rsum.State64

// Sum returns the bit-reproducible sum of values with DefaultLevels:
// every permutation and chunking of the same values yields the same
// bits. NaN and ±Inf inputs are handled deterministically (NaN wins;
// +Inf and −Inf together give NaN).
func Sum(values []float64) float64 { return SumLevels(values, DefaultLevels) }

// SumLevels is Sum with an explicit accuracy level L.
func SumLevels(values []float64, levels int) float64 {
	s := rsum.NewState64(levels)
	s.AddSliceVec(values)
	return s.Value()
}

// Sum32 returns the bit-reproducible float32 sum with DefaultLevels.
func Sum32(values []float32) float32 {
	s := rsum.NewState32(DefaultLevels)
	s.AddSliceVec(values)
	return s.Value()
}

// Group is one row of a GROUPBY result.
type Group = dist.Group

// GroupByOptions configures GroupBySum.
type GroupByOptions struct {
	// Levels is the accuracy level L (default DefaultLevels).
	Levels int
	// Groups is an estimate of the number of distinct keys; with the
	// row count (which also caps it) it is all the planner (agg.Plan)
	// needs: partition once the table of all groups outgrows a
	// worker's cache, size summation buffers to fill the cache (Eq. 4)
	// but no larger than a group's share of the rows, and run
	// unbuffered when that leaves under 32 values per buffer. 0 means
	// unknown (2^12 is assumed). It steers speed only, never the
	// result bits.
	Groups int
	// Workers is the number of goroutines (default GOMAXPROCS).
	Workers int
}

func (o *GroupByOptions) withDefaults() GroupByOptions {
	var v GroupByOptions
	if o != nil {
		v = *o
	}
	if v.Levels == 0 {
		v.Levels = DefaultLevels
	}
	if v.Groups <= 0 {
		v.Groups = 1 << 12
	}
	return v
}

// GroupBySum aggregates values by key with reproducible SUM: the result
// (as a set of groups) is bit-identical for any permutation of the
// input, any worker count, and any options with the same Levels.
// The returned groups are sorted by key — by construction, not by a
// sort: a partitioned run (agg.GroupBySum) splits the rows into
// ascending key ranges, and every range's groups leave their table in
// key order as finished ⟨key, sum⟩ pairs. It panics if keys and values
// differ in length.
func GroupBySum(keys []uint32, values []float64, opts *GroupByOptions) []Group {
	o := opts.withDefaults()
	o.Groups = min(o.Groups, max(len(keys), 1))
	depth, bsz := agg.Plan(o.Groups, len(keys), 8)
	return agg.GroupBySum(keys, values, o.Levels, bsz,
		agg.Options{Depth: depth, Workers: o.Workers, GroupHint: o.Groups},
		func(key uint32, sum float64) Group { return Group{Key: key, Sum: sum} })
}

// BufferSizeFor evaluates the paper's cache-footprint model (Eq. 4):
// the summation buffer size that fills the per-thread cache budget for
// the given number of groups aggregated without partitioning, never
// below the smallest buffer worth having (32 values).
func BufferSizeFor(groups int) int {
	return agg.BufferSize(groups, 1, 8)
}

// ErrorBound returns the worst-case absolute error of a reproducible
// sum of n values with the given levels and maximum magnitude (Eq. 6).
func ErrorBound(n, levels int, maxAbs float64) float64 {
	return exact.RSumBound(n, levels, maxAbs)
}

// Sentinel errors of the distributed operators, matchable with
// errors.Is on the (possibly wrapped) errors DistributedSum and
// DistributedGroupBySum return.
var (
	// ErrNoShards: the cluster has zero nodes.
	ErrNoShards = dist.ErrNoShards
	// ErrWorkers: non-positive per-node worker count.
	ErrWorkers = dist.ErrWorkers
	// ErrShardMismatch: key and value shards disagree in shape.
	ErrShardMismatch = dist.ErrShardMismatch
	// ErrStraggler: a node stayed silent through every re-request
	// deadline (see WithStragglerDeadline).
	ErrStraggler = dist.ErrStraggler
	// ErrChunkBudget: buffering incoming message chunks would exceed
	// the reassembly budget (see WithReassemblyBudget).
	ErrChunkBudget = dist.ErrChunkBudget
	// ErrConfig: a DistOption was built with an invalid value (a
	// non-positive chunk payload, reassembly budget, or straggler
	// deadline), or a ClusterSpec field is out of range. Reported
	// before any run starts.
	ErrConfig = dist.ErrConfig
	// ErrHandshake: a worker process's join handshake disagreed with
	// the supervisor on the frame version, rsum level count, or
	// run-config digest (see NewCluster).
	ErrHandshake = dist.ErrHandshake
)

// FaultPlan configures the fault-injection decorator of the distributed
// operators: deterministic (seeded) delivery delay, duplication,
// reordering, and dropped-then-retried frames. Injected faults never
// change the result bits — that is the point.
type FaultPlan = dist.FaultPlan

// DistOption configures the interconnect of DistributedSum and
// DistributedGroupBySum. The default is the in-process channel
// transport with no injected faults.
type DistOption func(*dist.Config)

// WithTCPTransport routes partial aggregates through real TCP sockets
// on loopback — one listener per simulated node, frames length-prefixed
// and CRC-protected — instead of in-process channels. The result bits
// are identical to every other transport.
func WithTCPTransport() DistOption {
	return func(c *dist.Config) { c.NewTransport = dist.TCPTransportFactory }
}

// WithChanTransport selects the in-process channel transport (the
// default), spelled out for symmetry in transport sweeps.
func WithChanTransport() DistOption {
	return func(c *dist.Config) { c.NewTransport = dist.ChanTransportFactory }
}

// WithFaults wraps the selected transport in the fault-injection
// decorator. Use it to demonstrate (or test) that delays, duplication,
// reordering, and dropped-then-retried frames do not change a single
// bit of the result.
func WithFaults(plan FaultPlan) DistOption {
	return func(c *dist.Config) { c.Faults = &plan }
}

// WithStragglerDeadline sets how long a node waits in silence for what
// it still expects — a child's partial in the reduction tree, a
// shuffle or gather payload in GROUP BY — before re-requesting it
// (straggler handling). Spurious re-requests are harmless; frames are
// deduplicated. d must be positive: a non-positive value fails the
// operation immediately with ErrConfig.
func WithStragglerDeadline(d time.Duration) DistOption {
	if d <= 0 {
		d = -1 // as poisonNonPositive: 0 must not select the default
	}
	return func(c *dist.Config) { c.ChildDeadline = d }
}

// poisonNonPositive maps an explicitly non-positive option argument to
// a negative marker, so Config.Validate reports it as ErrConfig at the
// next operation instead of the zero value silently selecting the
// default (a classic way to fail deep inside a run later).
func poisonNonPositive(v int) int {
	if v <= 0 {
		return -1
	}
	return v
}

// WithMaxChunkPayload caps the payload bytes of one wire frame: a
// logical message (a partial state, a shuffle frame of ⟨key, state⟩
// pairs, a gather of finalized groups) larger than this travels as a
// stream of chunk frames that the receiver reassembles — out-of-order,
// duplicated, and individually re-requested chunks included — before
// any protocol code sees the payload. The maximum (and the default,
// when this option is not used) is the 16 MiB frame ceiling, so
// workloads whose messages always fit in one frame produce exactly the
// single-frame traffic they did before chunking existed. Chunking
// never changes result bits; it only decides how many wire frames
// carry the same canonical bytes. bytes must be positive: a
// non-positive value fails the operation immediately with ErrConfig.
func WithMaxChunkPayload(bytes int) DistOption {
	return func(c *dist.Config) { c.MaxChunkPayload = poisonNonPositive(bytes) }
}

// WithReassemblyBudget caps the bytes a node buffers for incomplete
// incoming chunk streams (default 1 GiB). Messages that would exceed
// the budget fail with ErrChunkBudget — on the sender when the size is
// its own doing, on the receiver when a hostile peer tries to declare
// its way past the node's memory. The budget is shared across all
// streams a node is concurrently reassembling, so when lowering it
// allow for fan-in × the largest expected message. bytes must be
// positive: a non-positive value fails the operation immediately with
// ErrConfig.
func WithReassemblyBudget(bytes int) DistOption {
	return func(c *dist.Config) { c.ReassemblyBudget = poisonNonPositive(bytes) }
}

// InitWorkerProcess turns the current process into a cluster worker
// and never returns when it was spawned as one by a NewCluster
// supervisor; otherwise it returns immediately. Call it at the top of
// main (before flag parsing) in any program that uses NewCluster
// without a separate reproworker binary (see REPROWORKER_BIN).
func InitWorkerProcess() { proc.MaybeWorkerMain() }

func distConfig(opts []DistOption) dist.Config {
	var cfg dist.Config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// DistributedSum computes the reproducible SUM of a sharded input on a
// simulated cluster with one node per shard: every node sums its shard
// locally (with the given per-node worker count), and the partial
// states are reduced over a binomial tree, traveling between nodes as
// canonical binary encodings (§III-D of the paper: local summation per
// process, then a global reduce, as in an MPI_Reduce, whose library
// and not its caller picks the tree). The result carries the same bits
// as Sum over the concatenated shards — for every cluster size, worker
// count, message arrival order, transport (WithTCPTransport), and
// fault plan (WithFaults). The nodes are goroutines of this process;
// to run the same reduction across worker processes, submit a Job to a
// NewCluster handle.
func DistributedSum(shards [][]float64, workers int, opts ...DistOption) (float64, error) {
	return dist.ReduceConfig(shards, workers, distConfig(opts))
}

// DistributedGroupBySum computes a reproducible GROUP BY SUM over rows
// sharded across a simulated cluster: shardKeys[i] and shardVals[i]
// are node i's rows. It is DistributedAggregateByKey with the single
// spec SUM(column 0): a hash shuffle routes each key to a unique owner
// node, senders pre-aggregate into per-key partial states, and owners
// merge the shipped states in arrival order. The returned groups are
// sorted by key and bit-identical to GroupBySum over the concatenated
// rows, for every sharding, cluster size, worker count, transport, and
// fault plan.
func DistributedGroupBySum(shardKeys [][]uint32, shardVals [][]float64, workers int, opts ...DistOption) ([]Group, error) {
	return dist.AggregateByKeyConfig(shardKeys, shardVals, workers, distConfig(opts))
}

// AggKind identifies one aggregate function of the distributed
// multi-aggregate GROUP BY catalog.
type AggKind = sqlagg.AggKind

// The aggregate catalog: every kind an AggSpec can name. The
// floating-point aggregates are built on reproducible summation, so
// each finalized value is bit-identical for every execution of the
// same input multiset.
const (
	AggSum        = sqlagg.AggSum        // SUM(col)
	AggCount      = sqlagg.AggCount      // COUNT(*)
	AggAvg        = sqlagg.AggAvg        // AVG(col)
	AggVarPop     = sqlagg.AggVarPop     // VAR_POP(col)
	AggVarSamp    = sqlagg.AggVarSamp    // VAR_SAMP(col)
	AggStddevPop  = sqlagg.AggStddevPop  // STDDEV_POP(col)
	AggStddevSamp = sqlagg.AggStddevSamp // STDDEV_SAMP(col)
	AggMin        = sqlagg.AggMin        // MIN(col)
	AggMax        = sqlagg.AggMax        // MAX(col)
)

// AggSpec is one aggregate of a multi-aggregate GROUP BY: which
// function (Kind), at which accuracy level (Levels, 0 = DefaultLevels),
// over which input column (Col). The spec list is a run's aggregate
// catalog: a cluster job ships it to every worker in the job's spec.
type AggSpec = sqlagg.AggSpec

// TupleGroup is one row of a multi-aggregate GROUP BY result: the key
// and one finalized float64 per spec, in spec order.
type TupleGroup = dist.TupleGroup

// DistributedAggregateByKey computes a reproducible multi-aggregate
// GROUP BY over rows sharded across a cluster: shardKeys[i] holds node
// i's keys and shardCols[i][c] its c-th value column (every column the
// specs read must be present and as long as the keys; shards with no
// rows may omit columns). Each spec contributes one output column, in
// order. Like DistributedGroupBySum, the rows are hash-shuffled to
// unique owner nodes, senders pre-aggregate per-key state tuples, and
// owners merge shipped tuples in arrival order; the returned groups
// are sorted by key and bit-identical for every sharding, cluster
// size, worker count, transport (WithTCPTransport), and fault plan
// (WithFaults) — and to a NewCluster Job with the same specs over
// RowShards of the same rows.
func DistributedAggregateByKey(shardKeys [][]uint32, shardCols [][][]float64, workers int, specs []AggSpec, opts ...DistOption) ([]TupleGroup, error) {
	return dist.AggregateTuplesConfig(shardKeys, shardCols, workers, specs, distConfig(opts))
}

// DotProduct returns the bit-reproducible dot product Σ x[i]·y[i] with
// DefaultLevels, using error-free product transformation (each product's
// rounding error is recovered with an FMA and folded into the sum), so
// the result is both reproducible and as accurate as summing the exact
// products. Panics if the vectors have different lengths.
func DotProduct(x, y []float64) float64 {
	return sqlagg.DotProductExact(x, y, DefaultLevels)
}
