package dist

import "fmt"

// Chunked logical messages. A logical message (one partial state, one
// shuffle frame, one gather frame, one error) whose payload exceeds the
// configured chunk payload travels as a stream of wire frames sharing
// (Kind, From, To, Seq) and numbered Chunk 0..Chunks−1. The split is a
// pure transport concern: receivers reassemble the exact payload bytes
// before any protocol code sees them, so merge order per key and every
// other reproducibility property are untouched — chunking only decides
// how many wire frames carry the same canonical bytes.

// DefaultChunkPayload is the chunk payload size used when Config leaves
// MaxChunkPayload zero: the codec's frame ceiling, so every payload
// that fits in one wire frame travels as exactly one frame.
const DefaultChunkPayload = MaxFramePayload

// DefaultReassemblyBudget bounds the bytes a node buffers for
// incomplete incoming messages when Config leaves ReassemblyBudget
// zero (1 GiB).
const DefaultReassemblyBudget = 1 << 30

// SplitFrame splits one logical frame into its wire chunks: every chunk
// carries at most maxChunk payload bytes, all but the last exactly
// maxChunk (the stride the reassembler enforces); maxChunk <= 0
// or above the frame ceiling selects DefaultChunkPayload. Payloads
// alias f.Payload (no copying — the in-process transport stays
// zero-copy). An empty payload yields one empty chunk, so receivers can
// still count senders.
func SplitFrame(f Frame, maxChunk int) []Frame {
	if maxChunk <= 0 || maxChunk > MaxFramePayload {
		maxChunk = DefaultChunkPayload
	}
	n := (len(f.Payload) + maxChunk - 1) / maxChunk
	if n == 0 {
		n = 1
	}
	chunks := make([]Frame, n)
	for i := 0; i < n; i++ {
		c := f
		c.Chunk, c.Chunks = uint32(i), uint32(n)
		if len(f.Payload) > 0 {
			c.Payload = f.Payload[i*maxChunk : min((i+1)*maxChunk, len(f.Payload))]
		}
		chunks[i] = c
	}
	mChunksSplit.Add(uint64(n))
	return chunks
}

// partialMsg is one incoming logical message mid-reassembly. Chunks are
// written in place into one contiguous buffer at chunk index × stride,
// with an arrival bitmap for dedup: one copy per chunk.
type partialMsg struct {
	kind    byte
	total   uint32   // declared chunk count (≥ 2; 1-chunk messages take the fast path)
	buf     []byte   // contiguous reassembly buffer, len stride × total
	lastLen int      // payload bytes of the final chunk; −1 until it arrives
	arrived []uint64 // arrival bitmap by chunk index
	n       int      // distinct chunks arrived
}

// Reassembler rebuilds logical messages from chunk streams on one
// node's data plane. Not safe for concurrent use. Every sender of a run
// splits at the run's one chunk payload (SplitFrame at
// Config.MaxChunkPayload), so the reassembler knows a message's shape
// from whichever of its chunks arrives first: every non-final chunk is
// exactly the stride, the final one non-empty and at most the stride.
// It writes out-of-order chunks in place into one contiguous
// per-message buffer (see partialMsg), deduplicates per chunk (a
// retransmitted or fault-duplicated chunk is absorbed exactly once),
// remembers completed messages so whole-message retransmissions are
// swallowed, and enforces a total byte budget across all incomplete
// messages so a hostile peer cannot OOM the node. The budget bounds
// ALLOCATED reassembly memory, not merely arrived bytes: a stream's
// whole buffer (stride × declared chunk count) is charged when its
// first chunk allocates it, so many barely-started streams with huge
// declared counts cannot allocate past the budget, and the per-stream
// arrival bitmap stays proportional to the budget (chunk count ≤
// buffer size). It revalidates chunk headers itself: frames arriving
// by reference through ChanTransport never pass the wire decoder.
type Reassembler struct {
	budget  int
	stride  int
	used    int
	partial map[uint64]*partialMsg // keyed by dedupKey(From, Seq)
	done    dedup
}

// NewReassembler returns an empty reassembler for chunks split at
// stride (as SplitFrame reads it: <= 0 or above the frame ceiling
// selects DefaultChunkPayload); budget <= 0 selects
// DefaultReassemblyBudget.
func NewReassembler(budget, stride int) *Reassembler {
	if budget <= 0 {
		budget = DefaultReassemblyBudget
	}
	if stride <= 0 || stride > MaxFramePayload {
		stride = DefaultChunkPayload
	}
	return &Reassembler{
		budget:  budget,
		stride:  stride,
		partial: make(map[uint64]*partialMsg),
		done:    make(dedup),
	}
}

// Accept consumes one wire frame. When the frame completes its logical
// message, Accept returns the message with its full payload and
// complete = true; the message is then marked done and all further
// deliveries on its (From, Seq) stream are swallowed. fresh reports
// whether the frame contributed new bytes (the protocols' straggler
// give-up budget measures silence, and a chunk of a still-incomplete
// message is progress). Inconsistent streams — mismatched chunk counts
// or kinds, out-of-range indexes, chunks off the stride — and budget
// exhaustion yield an error; the frame is discarded and the
// reassembler stays usable.
func (r *Reassembler) Accept(f Frame) (msg Frame, complete, fresh bool, err error) {
	key := dedupKey(f.From, f.Seq)
	if r.done[key] {
		return Frame{}, false, false, nil
	}
	if err := validChunkFields(f.Kind, f.Chunk, f.Chunks); err != nil {
		return Frame{}, false, false, err
	}
	p := r.partial[key]
	if p != nil && (p.total != f.Chunks || p.kind != f.Kind) {
		// Shape change mid-stream — including a single-chunk frame on a
		// key that already buffered a multi-chunk partial, which the
		// fast path below must not silently "complete" over.
		return Frame{}, false, false, fmt.Errorf(
			"%w: chunk stream (from %d, seq %d) changed shape: %d-chunk kind %d vs %d-chunk kind %d",
			ErrBadFrame, f.From, f.Seq, p.total, p.kind, f.Chunks, f.Kind)
	}
	if f.Chunks == 1 {
		// Single-frame fast path: nothing to buffer, the payload is
		// handed over without a copy.
		r.done[key] = true
		return f, true, true, nil
	}
	final := f.Chunk == f.Chunks-1
	if n := len(f.Payload); n == 0 || n > r.stride || !final && n != r.stride {
		// An empty chunk would let a short payload masquerade as
		// complete; any other size breaks the shape SplitFrame makes.
		return Frame{}, false, false, fmt.Errorf(
			"%w: chunk %d of %d of stream (from %d, seq %d) is %d bytes at stride %d",
			ErrBadFrame, f.Chunk, f.Chunks, f.From, f.Seq, n, r.stride)
	}
	if p == nil {
		// First chunk to arrive: allocate, and charge, the whole buffer
		// before anything is kept, so a rejected frame leaves the
		// reassembler as it was.
		full := int64(r.stride) * int64(f.Chunks)
		if int64(r.used)+full > int64(r.budget) {
			mReasmRejects.Inc()
			return Frame{}, false, false, fmt.Errorf(
				"%w: %d buffered + %d-chunk stream of %d-byte chunks from node %d exceeds budget %d",
				ErrChunkBudget, r.used, f.Chunks, r.stride, f.From, r.budget)
		}
		p = &partialMsg{kind: f.Kind, total: f.Chunks, buf: make([]byte, full),
			lastLen: -1, arrived: make([]uint64, (f.Chunks+63)/64)}
		r.partial[key] = p
		r.used += int(full)
	}
	w, bit := f.Chunk/64, uint64(1)<<(f.Chunk%64)
	if p.arrived[w]&bit != 0 {
		return Frame{}, false, false, nil // duplicate chunk absorbed
	}
	copy(p.buf[int(f.Chunk)*r.stride:], f.Payload)
	if final {
		p.lastLen = len(f.Payload)
	}
	p.arrived[w] |= bit
	p.n++
	if p.n < int(p.total) {
		return Frame{}, false, true, nil
	}
	// Complete: the payload is the buffer, already in chunk order.
	payload := p.buf[:int(p.total-1)*r.stride+p.lastLen]
	r.used -= len(p.buf)
	delete(r.partial, key)
	r.done[key] = true
	msg = f
	msg.Chunk, msg.Chunks, msg.Payload = 0, 1, payload
	return msg, true, true, nil
}

// Missing returns the chunk indexes still absent from the partially
// received message (from, seq), in ascending order, or nil if no chunk
// of the message has arrived yet (so the caller should re-request the
// whole stream).
func (r *Reassembler) Missing(from int, seq uint32) []uint32 {
	p := r.partial[dedupKey(from, seq)]
	if p == nil {
		return nil
	}
	idx := make([]uint32, 0, int(p.total)-p.n)
	for i := uint32(0); i < p.total; i++ {
		if p.arrived[i/64]&(1<<(i%64)) == 0 {
			idx = append(idx, i)
		}
	}
	return idx
}
