// Package dist implements reproducible aggregation across a simulated
// cluster — the MIMD setting the summation algorithm was designed for
// (paper §III-D: local summation per process, then a global merge of
// partial states).
//
// The cluster is simulated with one goroutine per node and Go channels
// (or loopback TCP sockets) as the interconnect. Every distributed
// aggregate runs one exchange: each node's combiner folds its shard
// into partial states — one per group key for AggregateByKey's radix
// hash shuffle (built on internal/partition), one rsum.State64 under
// key 0 for ReduceConfig's SUM — and ships them, in their canonical
// encodings, to the key's unique owner node; owners merge what they
// receive strictly in arrival order, which is deliberately
// nondeterministic, since concurrent senders race into the owner's
// inbox, and a final gather collects every owner's groups at the root.
// Reproducibility does not come from ordering the network; it comes
// from the algebra: state merging is associative and commutative at
// the bit level, and the encoding is canonical. The finalized result
// is therefore bit-identical for every cluster size, every per-node
// worker count, and every message arrival order — and would be for any
// other combining tree, which is why the topology is not an option.
package dist

import "errors"

// Group is one row of a distributed GROUP BY result.
type Group struct {
	Key uint32
	Sum float64
}

var (
	// ErrNoShards is returned when the cluster has zero nodes.
	ErrNoShards = errors.New("dist: need at least one shard (cluster node)")
	// ErrWorkers is returned for non-positive per-node worker counts.
	ErrWorkers = errors.New("dist: worker count must be ≥ 1")
	// ErrShardMismatch is returned when key and value shards disagree
	// in shape.
	ErrShardMismatch = errors.New("dist: key and value shards must have matching shapes")
)
