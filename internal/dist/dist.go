// Package dist implements reproducible aggregation across a simulated
// cluster — the MIMD setting the summation algorithm was designed for
// (paper §III-D: local summation per process, then a global reduce of
// partial states, as in an MPI_Reduce).
//
// The cluster is simulated with one goroutine per node and Go channels
// as the interconnect. Each node computes a local rsum.State64 partial
// over its shard, serializes it with the canonical wire format of
// internal/rsum (MarshalBinary), and ships the bytes to its parent in
// the reduction tree. Receivers fold incoming encodings into their own
// partial strictly in arrival order — which is deliberately
// nondeterministic, since concurrent senders race into the parent's
// inbox. Reproducibility does not come from ordering the network; it
// comes from the algebra: state merging is associative and commutative
// at the bit level, and the encoding is canonical. The finalized result
// is therefore bit-identical for every cluster size, every reduction
// topology (Binomial, Chain, Star), every per-node worker count, and
// every message arrival order.
//
// AggregateByKey extends the same guarantee to distributed GROUP BY: a
// radix hash shuffle (built on internal/partition) routes every key to
// a unique owner node, senders pre-aggregate locally into per-key
// partial states (a combiner), and owners merge the shipped states in
// arrival order before a final gather at the root.
package dist

import (
	"errors"
	"fmt"
)

// Topology selects the shape of the global reduction tree. All
// topologies produce bit-identical results; they differ only in the
// communication pattern (depth and fan-in), exactly as an MPI
// implementation may pick different reduction trees per message size
// and cluster size without affecting the reproducible result.
type Topology int

const (
	// Binomial is the binomial reduction tree used by classic
	// MPI_Reduce implementations: ⌈log2 n⌉ rounds, node i sends to
	// i − 2^k where 2^k is i's lowest set bit.
	Binomial Topology = iota
	// Chain is a linear pipeline: node n−1 → n−2 → … → 0.
	Chain
	// Star ships every partial directly to the root, which merges
	// them in (nondeterministic) arrival order.
	Star
)

// String returns the topology name ("binomial", "chain", "star").
func (t Topology) String() string {
	switch t {
	case Binomial:
		return "binomial"
	case Chain:
		return "chain"
	case Star:
		return "star"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Valid reports whether t is a known topology.
func (t Topology) Valid() bool { return t >= Binomial && t <= Star }

// parent returns the node that id ships its merged partial to, or −1
// for the root (node 0); it alone defines the tree (childrenOf inverts
// it). Nodes merge their children's partials in arrival order, not
// round order, so even the Binomial tree has genuinely racy arrivals
// at each node.
func (t Topology) parent(id, n int) int {
	if id == 0 {
		return -1
	}
	switch t {
	case Binomial:
		return id &^ (id & -id) // clear the lowest set bit
	case Chain:
		return id - 1
	default: // Star
		return 0
	}
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
	// ErrTopology is returned for an unknown Topology value.
	ErrTopology = errors.New("dist: unknown topology")
	// ErrShardMismatch is returned when key and value shards disagree
	// in shape.
	ErrShardMismatch = errors.New("dist: key and value shards must have matching shapes")
)
