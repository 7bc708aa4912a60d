// Package dist implements reproducible aggregation across a simulated
// cluster — the MIMD setting the summation algorithm was designed for
// (paper §III-D: local summation per process, then a global reduce of
// partial states, as in an MPI_Reduce).
//
// The cluster is simulated with one goroutine per node and Go channels
// as the interconnect. Each node computes a local rsum.State64 partial
// over its shard, serializes it with the canonical wire format of
// internal/rsum (MarshalBinary), and ships the bytes to its parent in
// the binomial reduction tree. Receivers fold incoming encodings into
// their own partial strictly in arrival order — which is deliberately
// nondeterministic, since concurrent senders race into the parent's
// inbox. Reproducibility does not come from ordering the network; it
// comes from the algebra: state merging is associative and commutative
// at the bit level, and the encoding is canonical. The finalized result
// is therefore bit-identical for every cluster size, every per-node
// worker count, and every message arrival order — and would be for any
// other reduction tree, which is why the tree is not an option.
//
// AggregateByKey extends the same guarantee to distributed GROUP BY: a
// radix hash shuffle (built on internal/partition) routes every key to
// a unique owner node, senders pre-aggregate locally into per-key
// partial states (a combiner), and owners merge the shipped states in
// arrival order before a final gather at the root.
package dist

import "errors"

// parent returns the node that id ships its merged partial to in the
// binomial reduction tree of classic MPI_Reduce implementations
// (⌈log2 n⌉ rounds: node i sends to i − 2^k where 2^k is i's lowest
// set bit), or −1 for the root (node 0); it alone defines the tree
// (childrenOf inverts it). The tree is not the caller's choice: states
// merge exactly, so every tree gives the same bits. Nodes merge their
// children's partials in arrival order, not round order, so arrivals
// at each node are genuinely racy.
func parent(id int) int {
	if id == 0 {
		return -1
	}
	return id &^ (id & -id) // clear the lowest set bit
}

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
