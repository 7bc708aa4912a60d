package dist

import (
	"errors"
	"fmt"
)

// collector is one node's message plane for an exchange run — the
// single fan-in / straggler / resend loop under every distributed
// aggregate. The node declares the (from, seq) streams it expects
// one logical message on, sends its own messages through the collector
// (which caches their chunk lists, so first sends and retransmissions
// are byte-identical), and then collects: receive with the straggler
// deadline, reassemble and deduplicate, re-request whatever an unheard
// stream is missing, answer peers' re-requests from the cache, and
// finally serve re-requests until the transport closes.
type collector struct {
	id  int
	tr  Transport
	cfg Config
	asm *Reassembler
	// pending lists the expected incoming streams not yet heard, in
	// declaration order (the order re-requests go out in).
	pending []stream
	// sent caches the chunk list of every outgoing stream.
	sent map[stream][]Frame
}

// stream names one logical message of the run: the one exchanged with
// node peer on stream id seq.
type stream struct {
	peer int
	seq  uint32
}

func newCollector(id int, tr Transport, cfg Config) *collector {
	return &collector{
		id: id, tr: tr, cfg: cfg,
		asm:  NewReassembler(cfg.reassemblyBudget(), cfg.chunkPayload()),
		sent: make(map[stream][]Frame),
	}
}

// expect declares that node from will send one message on stream seq.
func (c *collector) expect(from int, seq uint32) {
	c.pending = append(c.pending, stream{from, seq})
}

// send splits f into chunks, caches them for retransmission, and
// transmits them. Send failures are tolerated protocol-wide: the
// receiver's re-request path retries chunk by chunk (over sockets, on a
// freshly dialed connection), and a closed transport surfaces through
// Recv.
func (c *collector) send(f Frame) {
	chunks := SplitFrame(f, c.cfg.chunkPayload())
	c.sent[stream{f.To, f.Seq}] = chunks
	c.transmit(chunks)
}

// transmit sends a chunk list, one Send per chunk.
func (c *collector) transmit(chunks []Frame) {
	for _, ch := range chunks {
		_ = c.tr.Send(ch)
	}
}

// collect receives until every expected stream has delivered its
// message, handing each complete message to onMsg in arrival order. It
// returns the first failure: a peer's KindError (decoded, sentinel
// preserved), a reassembly or onMsg error, the transport closing
// underneath the protocol, or ErrStraggler once MaxResend consecutive
// deadlines passed in silence. Complete messages on streams the node
// never declared are dropped.
func (c *collector) collect(onMsg func(Frame) error) error {
	resends, total := 0, len(c.pending)
	for len(c.pending) > 0 {
		f, err := c.tr.Recv(c.id, c.cfg.childDeadline())
		switch {
		case errors.Is(err, ErrTimeout):
			// Straggler handling: re-request every stream not heard yet.
			// Duplicates are absorbed by the reassembler, so racing with
			// an in-flight original is safe, and re-request send failures
			// are tolerated like all other sends.
			if resends >= c.cfg.maxResend() {
				return fmt.Errorf("%w (node %d still missing %d of %d expected messages)",
					ErrStraggler, c.id, len(c.pending), total)
			}
			resends++
			for _, s := range c.pending {
				c.requestMissing(s)
			}
		case err != nil:
			return err
		case f.Kind == KindResend:
			// A re-request for a message not built yet (the root asking
			// for a gather) finds no cache entry; the eventual first send
			// satisfies it.
			c.serveResend(f)
		default:
			msg, complete, fresh, aerr := c.asm.Accept(f)
			if fresh {
				resends = 0 // progress: the give-up budget is for silence, not slowness
			}
			if aerr != nil {
				return fmt.Errorf("dist: node %d reassembling from node %d: %w", c.id, f.From, aerr)
			}
			if !complete || !c.heard(stream{msg.From, msg.Seq}) {
				continue
			}
			if msg.Kind == KindError {
				return DecodeErr(msg.From, msg.Payload)
			}
			if err := onMsg(msg); err != nil {
				return err
			}
		}
	}
	return nil
}

// heard strikes s off the pending list, reporting whether it was on it.
func (c *collector) heard(s stream) bool {
	for i, p := range c.pending {
		if p == s {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return true
		}
	}
	return false
}

// serve answers re-requests from the cached chunk lists until the
// transport closes — a request for one lost chunk retransmits one
// chunk, not the whole message.
func (c *collector) serve() {
	for {
		f, err := c.tr.Recv(c.id, 0)
		if err != nil {
			return
		}
		if f.Kind == KindResend {
			c.serveResend(f)
		}
	}
}

// serveResend answers one KindResend from the chunk list cached for
// (requester, stream): the whole stream for a Chunks == 0 selector, the
// single chunk index req.Chunk for Chunks == 1. An out-of-range index
// is ignored (a hostile or confused peer cannot make us send frames we
// never produced).
func (c *collector) serveResend(req Frame) {
	chunks := c.sent[stream{req.From, req.Seq}]
	if req.Chunks == 0 {
		mRetransmits.Add(uint64(len(chunks)))
		c.transmit(chunks)
		return
	}
	if int64(req.Chunk) < int64(len(chunks)) {
		mRetransmits.Inc()
		_ = c.tr.Send(chunks[req.Chunk])
	}
}

// maxChunkRequests bounds the targeted re-requests issued for one
// stream per deadline round, so a barely started many-thousand-chunk
// message does not answer every timeout with a request flood (and a
// matching flood of retransmissions racing the still-in-flight
// originals). Any arrival resets the round budget, and later rounds
// ask for whatever is still missing, so convergence is unaffected.
const maxChunkRequests = 64

// requestMissing sends the re-request frames for stream s: targeted
// KindResends for (up to maxChunkRequests of) the missing chunks when
// part of the message has arrived — so a single lost chunk costs one
// chunk of retransmit, not the whole logical message — or a
// whole-stream request when nothing has.
func (c *collector) requestMissing(s stream) {
	req := Frame{Kind: KindResend, From: c.id, To: s.peer, Seq: s.seq}
	idx := c.asm.Missing(s.peer, s.seq)
	if idx == nil {
		mResendReqs.Inc()
		_ = c.tr.Send(req)
		return
	}
	if len(idx) > maxChunkRequests {
		idx = idx[:maxChunkRequests]
	}
	mResendReqs.Add(uint64(len(idx)))
	req.Chunks = 1
	for _, i := range idx {
		req.Chunk = i
		_ = c.tr.Send(req)
	}
}
