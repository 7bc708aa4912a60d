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
// that fit in one wire frame before chunking existed still travels as
// exactly one frame.
const DefaultChunkPayload = MaxFramePayload

// DefaultReassemblyBudget bounds the bytes a node buffers for
// incomplete incoming messages when Config leaves ReassemblyBudget
// zero (1 GiB).
const DefaultReassemblyBudget = 1 << 30

// SplitFrame splits one logical frame into its wire chunks: every chunk
// carries at most maxChunk payload bytes, all but the last exactly
// maxChunk (the uniform stride the reassembler enforces); maxChunk <= 0
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
// written in place into one contiguous buffer at chunk-index × stride,
// with an arrival bitmap for dedup — one copy per chunk and no per-chunk
// map churn, versus the old map[uint32][]byte plus a second copy in a
// final concatenation.
//
// The stride is learned from the first non-final chunk to arrive: our
// SplitFrame makes every chunk except the last exactly the chunk
// payload, and the reassembler enforces that shape at the trust
// boundary (ChanTransport frames bypass the wire decoder). A final
// chunk arriving before any non-final one is stashed until the stride
// is known.
type partialMsg struct {
	kind    byte
	total   uint32   // declared chunk count (≥ 2; 1-chunk messages take the fast path)
	stride  int      // payload bytes of every non-final chunk; 0 until one arrives
	buf     []byte   // contiguous reassembly buffer, len stride×total, nil until stride known
	last    []byte   // final chunk stashed before the stride is known (aliases the frame)
	lastLen int      // payload bytes of the final chunk; −1 until it arrives
	arrived []uint64 // arrival bitmap by chunk index, nil until stride known
	n       int      // distinct chunks arrived
	bytes   int      // bytes charged against the budget: the stash, then the whole buffer
}

// Reassembler rebuilds logical messages from chunk streams on one
// receive path — a node's data plane, or one control connection of the
// multi-process runtime, so chunked job specs and results obey the same
// trust-boundary rules as data-plane traffic. Not safe for concurrent
// use. It writes out-of-order chunks in place into one
// contiguous per-message buffer (see partialMsg), deduplicates per
// chunk (a retransmitted or fault-duplicated chunk is absorbed exactly
// once), remembers completed messages so whole-message retransmissions
// are swallowed (this subsumes the pre-chunking per-message dedup), and
// enforces a total byte budget across all incomplete messages so a
// hostile peer cannot OOM the node. The budget bounds ALLOCATED
// reassembly memory, not merely arrived bytes: a stream's whole
// contiguous buffer (stride × declared chunk count) is charged when it
// is allocated, so many barely-started streams with huge declared
// counts cannot allocate past the budget, and the per-stream arrival
// bitmap stays proportional to the budget (chunk count ≤ buffer size).
// It revalidates chunk headers itself: frames arriving by reference
// through ChanTransport never pass the wire decoder.
type Reassembler struct {
	budget  int
	used    int
	partial map[uint64]*partialMsg // keyed by dedupKey(From, Seq)
	done    dedup
}

// NewReassembler returns an empty reassembler; budget <= 0 selects
// DefaultReassemblyBudget.
func NewReassembler(budget int) *Reassembler {
	if budget <= 0 {
		budget = DefaultReassemblyBudget
	}
	return &Reassembler{
		budget:  budget,
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
// or kinds, out-of-range indexes, empty chunks of a multi-chunk
// message, chunk sizes that break the uniform-stride shape SplitFrame
// guarantees — and budget exhaustion yield an error; the frame is
// discarded and the reassembler stays usable.
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
	if len(f.Payload) == 0 {
		// Senders never produce empty chunks of a multi-chunk message
		// (only a lone empty chunk); accepting one would let a short
		// payload masquerade as complete.
		return Frame{}, false, false, fmt.Errorf("%w: empty chunk %d of %d from node %d",
			ErrBadFrame, f.Chunk, f.Chunks, f.From)
	}
	if p == nil {
		p = &partialMsg{kind: f.Kind, total: f.Chunks, lastLen: -1}
		r.partial[key] = p
	}
	final := f.Chunk == f.Chunks-1

	if p.stride == 0 && !final {
		// First non-final chunk: it defines the stride, and with it the
		// full buffer size. Validate the stream shape and the budget
		// before allocating anything, so a rejected frame leaves the
		// partial untouched and the reassembler usable. The budget is
		// charged for the WHOLE buffer at allocation time — the budget
		// bounds allocated reassembly memory, not just arrived bytes, or
		// a peer could open many barely-started streams with huge
		// declared counts and allocate far beyond the budget.
		stride := len(f.Payload)
		if p.lastLen > stride {
			return Frame{}, false, false, fmt.Errorf(
				"%w: final chunk of stream (from %d, seq %d) is %d bytes but non-final chunks are %d",
				ErrBadFrame, f.From, f.Seq, p.lastLen, stride)
		}
		full := int64(stride) * int64(p.total)
		if full > int64(r.budget) {
			mReasmRejects.Inc()
			return Frame{}, false, false, fmt.Errorf(
				"%w: %d-chunk stream of %d-byte chunks from node %d could never fit budget %d",
				ErrChunkBudget, p.total, stride, f.From, r.budget)
		}
		// The stash charge (p.bytes) is refunded: its bytes move into
		// the buffer the full charge covers.
		if r.used-p.bytes+int(full) > r.budget {
			mReasmRejects.Inc()
			return Frame{}, false, false, fmt.Errorf(
				"%w: %d buffered + %d-byte stream buffer from node %d exceeds budget %d",
				ErrChunkBudget, r.used-p.bytes, int(full), f.From, r.budget)
		}
		p.stride = stride
		p.buf = make([]byte, full)
		p.arrived = make([]uint64, (p.total+63)/64)
		r.used += int(full) - p.bytes
		p.bytes = int(full)
		if p.lastLen >= 0 {
			// Migrate the stashed final chunk into its place.
			copy(p.buf[int(p.total-1)*stride:], p.last)
			p.last = nil
			p.arrived[(p.total-1)/64] |= 1 << ((p.total - 1) % 64)
			p.n = 1
		}
	}

	if p.stride == 0 {
		// Only the final chunk has arrived so far; stash it until a
		// non-final chunk reveals the stride.
		if p.lastLen >= 0 {
			return Frame{}, false, false, nil // duplicate final chunk
		}
		if r.used+len(f.Payload) > r.budget {
			mReasmRejects.Inc()
			return Frame{}, false, false, fmt.Errorf(
				"%w: %d buffered + %d-byte chunk from node %d exceeds budget %d",
				ErrChunkBudget, r.used, len(f.Payload), f.From, r.budget)
		}
		p.last, p.lastLen = f.Payload, len(f.Payload)
		p.bytes += len(f.Payload)
		r.used += len(f.Payload)
		return Frame{}, false, true, nil // total ≥ 2: never completes here
	}

	w, bit := f.Chunk/64, uint64(1)<<(f.Chunk%64)
	if p.arrived[w]&bit != 0 {
		return Frame{}, false, false, nil // duplicate chunk absorbed
	}
	if final {
		if len(f.Payload) > p.stride {
			return Frame{}, false, false, fmt.Errorf(
				"%w: final chunk of stream (from %d, seq %d) is %d bytes but non-final chunks are %d",
				ErrBadFrame, f.From, f.Seq, len(f.Payload), p.stride)
		}
	} else if len(f.Payload) != p.stride {
		return Frame{}, false, false, fmt.Errorf(
			"%w: chunk %d of stream (from %d, seq %d) is %d bytes but the stride is %d",
			ErrBadFrame, f.Chunk, f.From, f.Seq, len(f.Payload), p.stride)
	}
	// No budget charge here: the stream's whole buffer was charged when
	// it was allocated, and this chunk fills pre-charged space.
	copy(p.buf[int(f.Chunk)*p.stride:], f.Payload)
	if final {
		p.lastLen = len(f.Payload)
	}
	p.arrived[w] |= bit
	p.n++
	if p.n < int(p.total) {
		return Frame{}, false, true, nil
	}
	// Complete: the payload is the buffer, already in chunk order — no
	// second concatenation copy.
	payload := p.buf[:int(p.total-1)*p.stride+p.lastLen]
	r.used -= p.bytes
	delete(r.partial, key)
	r.done[key] = true
	msg = f
	msg.Chunk, msg.Chunks, msg.Payload = 0, 1, payload
	return msg, true, true, nil
}

// Forget drops the completed mark of the (from, seq) stream, so the
// next message on it is accepted as new. It is for a transport that
// neither duplicates nor replays a frame (a TCP control connection),
// where the mark has nothing to swallow and would only grow; the data
// plane keeps its marks, which absorb resends.
func (r *Reassembler) Forget(from int, seq uint32) { delete(r.done, dedupKey(from, seq)) }

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
	if p.arrived == nil {
		// Stride not learned yet: at most the stashed final chunk is here.
		for i := uint32(0); i < p.total; i++ {
			if p.lastLen < 0 || i != p.total-1 {
				idx = append(idx, i)
			}
		}
		return idx
	}
	for i := uint32(0); i < p.total; i++ {
		if p.arrived[i/64]&(1<<(i%64)) == 0 {
			idx = append(idx, i)
		}
	}
	return idx
}
