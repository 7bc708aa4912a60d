package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/rsum"
)

// levels is the summation accuracy level used by the distributed
// operators. All nodes must agree on L for partial states to merge;
// the canonical encoding carries L, and MergeBinary rejects mismatches.
const levels = core.DefaultLevels

// Config selects the interconnect and failure handling of the
// distributed operators. The zero value reproduces the classic
// configuration: in-process channels, no injected faults, and a patient
// straggler deadline.
type Config struct {
	// NewTransport builds the interconnect for an n-node cluster
	// (default ChanTransportFactory). The operation owns the transport
	// and closes it on completion.
	NewTransport TransportFactory
	// Faults, when non-nil and active, wraps the transport in a
	// fault-injection decorator (see FaultPlan).
	Faults *FaultPlan
	// ChildDeadline is how long a node waits in silence for what it
	// still expects — a shuffle message as an owner, a gather message
	// as the root — before re-requesting it
	// (straggler handling; default 1s). Spurious re-requests are
	// harmless: frames are deduplicated by (from, seq).
	ChildDeadline time.Duration
	// MaxResend caps a node's consecutive silent deadline rounds: after
	// this many Recv timeouts in a row with no frame consumed (each
	// followed by a re-request to every still-missing peer), the
	// operation gives up with ErrStraggler. Any progress resets the
	// budget — it measures silence, not slowness; a chunk of a
	// still-incomplete message counts as progress. 0 means the default
	// of 25; a negative value disables the give-up entirely.
	MaxResend int
	// MaxChunkPayload caps the payload bytes of one wire frame: logical
	// messages larger than this travel as a reassembled chunk stream.
	// 0 means DefaultChunkPayload (the 16 MiB frame ceiling, so every
	// payload that fits in one frame travels as exactly one frame);
	// values above MaxFramePayload are clamped to it. Every node of a
	// run splits at it, and its reassembler expects that stride.
	MaxChunkPayload int
	// ReassemblyBudget caps the bytes a node buffers for incomplete
	// incoming chunk streams before failing with ErrChunkBudget
	// (default DefaultReassemblyBudget). It also bounds the logical
	// message size a sender may produce, since a message over the
	// cluster-wide budget could never be reassembled. The budget is
	// shared across all concurrent incomplete streams on a node: when
	// sizing it explicitly, allow fan-in × the largest expected
	// message, or chunks interleaving from many senders can trip it
	// even though each individual message fits (the sender-side check
	// only rejects single messages that could never fit).
	ReassemblyBudget int

	// Trace, when non-nil, receives the root node's per-hop digests
	// during a GROUP BY run: "shuffle" (an order-invariant FNV-64a
	// fold over the complete shuffle payloads the root received),
	// then "gather" (the same fold over the gather payloads). The
	// serving layer threads a per-query trace through here, which is
	// what localizes a cross-backend divergence to the first hop
	// whose digest disagrees. Called from the root node's protocol
	// goroutine; implementations must be safe for that. It does not
	// enter the run-config digest (it is host-local observability,
	// not cluster configuration).
	Trace func(hop string, digest uint64)

	gate *sendGate // test hook forcing a global send order
}

// Validate rejects Config values that could only fail later and deeper:
// negative chunk payloads, reassembly budgets, and straggler deadlines
// (zero means "default", negative is always a bug — the facade also
// maps an explicit non-positive option argument here), plus fault
// plans with out-of-range probabilities or negative delays. Every
// rejection is an ErrConfig naming the option, so the failure stays at
// the call that made the mistake instead of inside a spawned run.
func (c Config) Validate() error {
	if c.MaxChunkPayload < 0 {
		return fmt.Errorf("%w: max chunk payload must be a positive byte count (WithMaxChunkPayload requires bytes >= 1)", ErrConfig)
	}
	if c.ReassemblyBudget < 0 {
		return fmt.Errorf("%w: reassembly budget must be a positive byte count (WithReassemblyBudget requires bytes >= 1)", ErrConfig)
	}
	if c.ChildDeadline < 0 {
		return fmt.Errorf("%w: straggler deadline must be a positive duration (WithStragglerDeadline requires d > 0)", ErrConfig)
	}
	if f := c.Faults; f != nil {
		if f.DropProb < 0 || f.DropProb > 1 || f.DupProb < 0 || f.DupProb > 1 {
			return fmt.Errorf("%w: fault probabilities must be in [0, 1] (WithFaults: DropProb %v, DupProb %v)", ErrConfig, f.DropProb, f.DupProb)
		}
		if f.MaxDelay < 0 || f.RetryDelay < 0 || f.MaxDrops < 0 {
			return fmt.Errorf("%w: fault delays and drop caps must be >= 0 (WithFaults: MaxDelay %v, RetryDelay %v, MaxDrops %d)", ErrConfig, f.MaxDelay, f.RetryDelay, f.MaxDrops)
		}
	}
	return nil
}

func (c Config) childDeadline() time.Duration {
	if c.ChildDeadline <= 0 {
		return time.Second
	}
	return c.ChildDeadline
}

func (c Config) maxResend() int {
	if c.MaxResend < 0 {
		return math.MaxInt // never give up; genuine hangs fall to the caller's deadline
	}
	if c.MaxResend == 0 {
		return 25
	}
	return c.MaxResend
}

func (c Config) chunkPayload() int {
	if c.MaxChunkPayload <= 0 || c.MaxChunkPayload > MaxFramePayload {
		return DefaultChunkPayload
	}
	return c.MaxChunkPayload
}

func (c Config) reassemblyBudget() int {
	if c.ReassemblyBudget <= 0 {
		return DefaultReassemblyBudget
	}
	return c.ReassemblyBudget
}

// maxMessage is the largest logical payload this configuration can
// move: the reassembly budget, or the per-message chunk-count bound
// times the chunk payload, whichever is smaller. Senders check against
// it before transmitting, so a payload no receiver could ever accept
// fails deterministically and identically on every transport (over TCP
// the receiver's decoder would otherwise reject every chunk and the
// re-request loop would spin until ErrStraggler — or forever under
// MaxResend < 0).
func (c Config) maxMessage() int {
	budget := c.reassemblyBudget()
	// The product is computed in int64: on 32-bit platforms the default
	// 16 MiB chunk payload times the 2^20 chunk-count bound overflows
	// int and would wrongly clamp maxMessage to garbage.
	if limit := int64(c.chunkPayload()) * MaxChunksPerMessage; limit < int64(budget) {
		return int(limit)
	}
	return budget
}

// transport builds the configured interconnect, applying the fault
// decorator if requested.
func (c Config) transport(n int) (Transport, error) {
	factory := c.NewTransport
	if factory == nil {
		factory = ChanTransportFactory
	}
	tr, err := factory(n)
	if err != nil {
		return nil, err
	}
	if tr.Nodes() != n {
		tr.Close()
		return nil, fmt.Errorf("dist: transport has %d nodes, cluster needs %d", tr.Nodes(), n)
	}
	if c.Faults != nil && c.Faults.Active() {
		return NewFaultTransport(tr, *c.Faults), nil
	}
	return tr, nil
}

// sendGate serializes sends into a prescribed global order. Tests use
// it to force specific message arrival orders; a nil gate lets senders
// race freely (the production configuration). Each node occupies one
// slot in order and may perform all of its sends during that slot.
type sendGate struct {
	mu    sync.Mutex
	cond  *sync.Cond
	order []int
	next  int
}

func newSendGate(order []int) *sendGate {
	g := &sendGate{order: order}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// wait blocks until it is id's turn to send.
func (g *sendGate) wait(id int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	for g.next < len(g.order) && g.order[g.next] != id {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// done releases the next sender in the prescribed order.
func (g *sendGate) done() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.next++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// ReduceConfig computes the reproducible global SUM over a sharded
// input — shards[i] is the slice of values held by cluster node i —
// over an explicitly configured interconnect: in-process channels, TCP
// sockets on loopback, or either wrapped in the fault-injection
// decorator. Each node sums its shard locally with the given number of
// parallel workers and ships its partial through the GROUP BY exchange
// (see RunReduceNode). The result is bit-identical for every shard
// assignment of the same multiset of values, every cluster size, every
// worker count, every message arrival order and every configuration:
// reproducibility comes from the canonical state algebra, not from
// transport behavior.
func ReduceConfig(shards [][]float64, workers int, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	n := len(shards)
	if n == 0 {
		return 0, ErrNoShards
	}
	if workers < 1 {
		return 0, fmt.Errorf("%w (got %d)", ErrWorkers, workers)
	}
	tr, err := cfg.transport(n)
	if err != nil {
		return 0, err
	}
	defer tr.Close()

	gs, err := runNodes(n, func(id int) ([]TupleGroup, error) {
		return RunReduceNode(id, shards[id], workers, tr, cfg, nil)
	})
	if err != nil || len(gs) == 0 {
		return 0, err
	}
	return gs[0].Aggs[0], nil
}

// runNodes runs every node's role of an in-process plane, run(id), on a
// goroutine of its own — the root's, node 0, on the caller's — and
// returns the root's result once the root's role ends. The other nodes
// keep serving retransmissions until the caller closes the transport
// underneath them.
func runNodes[R any](n int, run func(id int) (R, error)) (R, error) {
	for id := 1; id < n; id++ {
		go run(id)
	}
	return run(0)
}

// RunReduceNode executes node id's role of the distributed SUM over an
// externally owned transport. Its combiner is the local fold
// (localPartial): the shard becomes one rsum state, which ships as the
// lone ⟨key 0, SUM⟩ record of a single-SUM shuffle (a one-SUM tuple
// encodes to exactly the state's bytes). Key 0 has one owner, node 0,
// so the exchange runs with node 0 as the only owner: one message per
// node, merged at the root, and no gather. The root returns the lone
// group, or none when no node has rows; every other node returns as
// RunGroupByNode's do. mem is as there.
func RunReduceNode(id int, shard []float64, workers int, tr Transport, cfg Config, mem *NodeMemory) ([]TupleGroup, error) {
	if mem == nil {
		mem = new(NodeMemory)
	}
	plan, err := mem.planFor(sumSpecs())
	frames := mem.emptyFrames(1)
	if err == nil && len(shard) > 0 {
		acc := localPartial(shard, workers)
		// The record's ⟨key 0, length⟩ header (appendTuple's layout),
		// then the tuple, which is the state's encoding.
		frames[0] = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(frames[0], 0), uint32(plan.Width()))
		frames[0], err = acc.AppendBinary(frames[0])
	}
	return exchange(id, frames, err, tr, cfg, mem)
}

// localPartial sums one shard into a partial state using workers
// parallel goroutines. The result is bit-identical for every worker
// count: each worker sums a contiguous chunk (the state is independent
// of chunking) and the per-worker states merge order-independently.
func localPartial(shard []float64, workers int) rsum.State64 {
	acc := rsum.NewState64(levels)
	if workers == 1 || len(shard) < 2*workers {
		acc.AddSliceVec(shard)
		return acc
	}
	parts := make([]rsum.State64, workers)
	for w := range parts {
		parts[w] = rsum.NewState64(levels)
	}
	partition.EachChunk(len(shard), workers, func(w, lo, hi int) { parts[w].AddSliceVec(shard[lo:hi]) })
	for w := range parts {
		acc.Merge(&parts[w])
	}
	return acc
}
