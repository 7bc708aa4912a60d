package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"
)

// The message layer of the simulated cluster. The exchange every
// distributed aggregate runs is written against the Transport interface
// below, so the same protocol code runs over in-process channels
// (ChanTransport, the zero-copy path), real TCP sockets (one Endpoint
// per node: all in one process as TCPTransport, or one per worker
// process), and any of those wrapped in the fault-injection decorator
// (FaultTransport). Reproducibility never depends on the transport:
// partial states travel as canonical rsum encodings, merging is
// order-independent, and the exchange deduplicates frames, so delays,
// duplication, reordering, and dropped-then-retried frames cannot
// change the final bits.

// Frame kinds. The kind tags what the payload means to the aggregation
// protocols; the codec treats payloads as opaque bytes.
const (
	// KindGroups carries a shuffle frame of ⟨key, state⟩ pairs to the
	// partition owner.
	KindGroups byte = 1 + iota
	// KindGather carries finalized groups from an owner to the root.
	KindGather
	// KindResend asks the receiver to retransmit its frame (straggler
	// handling: an owner re-requests a sender's shuffle message, the
	// root an owner's gather, after a deadline).
	KindResend
	// KindError propagates a node failure; the payload is the error
	// text.
	KindError

	// Control-plane kinds of the multi-process cluster runtime
	// (internal/dist/proc). They travel only on the supervisor↔worker
	// control connections, never through the data-plane transports —
	// but they share the frame codec, so the wire validation (and the
	// chunking rules for large job specs and results) is identical.

	// KindHello is the worker → supervisor join handshake: frame
	// version, rsum level count, spec version, and (for returning
	// members, which hold the cluster config) the run-config digest. A
	// mismatch is rejected with a KindError carrying ErrHandshake.
	KindHello
	// KindJob carries the job spec (aggregate catalog — empty for a
	// reduction — and the shape of the rows that follow as KindRows)
	// from the supervisor to a joined worker.
	KindJob
	// KindResult carries the root worker's finalized result back to
	// the supervisor.
	KindResult
	// KindShutdown tells a worker the cluster is over: close the data
	// plane and exit.
	KindShutdown
	// KindConf answers a joiner's hello with the assigned node id,
	// the supervisor's epoch and the raw cluster config; it makes the
	// joiner a member.
	KindConf
	// KindReady is a worker's per-job acknowledgment: it has accepted
	// the job (sized the arrays its KindRows stream will fill) and
	// bound a fresh data-plane listener, whose address rides in the
	// payload.
	KindReady
	// KindPeers broadcasts the per-job data-plane address table; a
	// re-broadcast (higher epoch) re-points peers at a replacement
	// worker's listener mid-run.
	KindPeers
	// KindJobDone tells a worker the current job is over: tear down
	// the job's data plane and await the next KindJob.
	KindJobDone
	// KindPing is the worker → supervisor liveness heartbeat.
	KindPing
	// KindRows carries one self-contained chunk of a raw-row job's input
	// (a run of keys or of one column) from the supervisor to a worker,
	// which copies it into place instead of reassembling a message.
	KindRows

	kindMax = KindRows
)

// Frame is one wire message of the interconnect: a typed payload
// traveling from node From to node To. Seq distinguishes logically
// distinct messages between the same pair of nodes (retransmissions of
// the same message reuse the Seq), so receivers can deduplicate
// deliveries per (From, Seq) stream no matter how often the transport
// duplicates or the protocol re-requests.
//
// A logical message may travel as several chunk frames: Chunk is this
// frame's index within the logical message and Chunks the message's
// total chunk count (1 for the common single-frame case). All chunks
// of one message share (Kind, From, To, Seq); the reassembler on the
// receive side buffers out-of-order chunks and hands the protocols
// whole logical payloads. A KindResend frame uses the chunk fields as
// the re-request selector instead: Chunks == 0 asks for every chunk of
// the (From→To reversed) stream Seq, Chunks == 1 asks for just chunk
// index Chunk.
type Frame struct {
	Kind    byte
	From    int
	To      int
	Seq     uint32
	Chunk   uint32
	Chunks  uint32
	Payload []byte
}

// Wire format of a frame (little-endian), versioned and length-prefixed
// so stream transports can frame messages and reject foreign or corrupt
// bytes at the trust boundary:
//
//	offset  size  field
//	0       2     magic 0x5250 ("RP")
//	2       1     version (frameVersion)
//	3       1     kind
//	4       4     from
//	8       4     to
//	12      4     seq
//	16      4     chunk index
//	20      4     chunk count (see Frame: 0/1 selector on KindResend)
//	24      4     payload length m
//	28      m     payload
//	28+m    4     CRC-32 (IEEE) of bytes [0, 28+m)
//
// A frame of any other version is rejected at the trust boundary (the
// cluster is always homogeneous). Version 3 = the reduction tree's
// partial kind is gone, so every kind byte is one lower than in 2.
const (
	frameMagic   = 0x5250
	frameVersion = 3
	frameHdrSize = 2 + 1 + 1 + 4 + 4 + 4 + 4 + 4 + 4
	frameCRCSize = 4

	// MaxFramePayload bounds the payload length a decoder accepts, so a
	// corrupt or adversarial length prefix cannot trigger a huge
	// allocation. It caps one chunk, not one logical message: senders
	// split larger payloads into chunk streams (see SplitFrame) and
	// receivers reassemble them under Config.ReassemblyBudget.
	MaxFramePayload = 1 << 24

	// MaxChunksPerMessage bounds the chunk count a receiver accepts for
	// one logical message, so a hostile count cannot blow up the
	// reassembler's bookkeeping before the byte budget even engages.
	MaxChunksPerMessage = 1 << 20
)

// Transport and codec errors.
var (
	// ErrClosed is returned by Send/Recv after the transport is closed.
	ErrClosed = errors.New("dist: transport closed")
	// ErrTimeout is returned by Recv when no frame arrived within the
	// timeout.
	ErrTimeout = errors.New("dist: receive timeout")
	// ErrBadFrame is returned when wire bytes do not decode to a valid
	// frame, or when a chunk stream is internally inconsistent.
	ErrBadFrame = errors.New("dist: corrupt or truncated frame")
	// ErrChunkBudget is returned when buffering the partial chunk
	// streams of incoming logical messages would exceed the node's
	// reassembly budget (Config.ReassemblyBudget) — the defense against
	// a peer that declares huge messages to OOM its receiver.
	ErrChunkBudget = errors.New("dist: chunk reassembly budget exceeded")
	// ErrStraggler is returned when a peer stayed silent through every
	// re-request deadline.
	ErrStraggler = errors.New("dist: straggler peer unresponsive after re-requests")
	// ErrHandshake is returned when a worker's join handshake
	// (KindHello) disagrees with the supervisor on the frame version,
	// the rsum level count, or the run-config digest. A heterogeneous
	// cluster is rejected at join time, before any data-plane traffic.
	ErrHandshake = errors.New("dist: cluster join handshake rejected")
	// ErrConfig is returned when a Config (or a facade DistOption that
	// builds one) carries an invalid value — validated up front by the
	// distributed operators so a bad knob fails the call immediately
	// instead of deep inside a run.
	ErrConfig = errors.New("dist: invalid configuration")
)

// FrameVersion is the wire-format version of the frame codec, exported
// for the multi-process join handshake: workers announce the version
// they speak in KindHello and the supervisor rejects mismatches.
const FrameVersion = frameVersion

// AppendFrame appends the wire encoding of f to dst and returns the
// extended slice.
func AppendFrame(dst []byte, f Frame) []byte {
	var hdr [frameHdrSize]byte
	binary.LittleEndian.PutUint16(hdr[0:], frameMagic)
	hdr[2] = frameVersion
	hdr[3] = f.Kind
	binary.LittleEndian.PutUint32(hdr[4:], uint32(f.From))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.To))
	binary.LittleEndian.PutUint32(hdr[12:], f.Seq)
	binary.LittleEndian.PutUint32(hdr[16:], f.Chunk)
	binary.LittleEndian.PutUint32(hdr[20:], f.Chunks)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(f.Payload)))
	start := len(dst)
	dst = append(dst, hdr[:]...)
	dst = append(dst, f.Payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	var tail [frameCRCSize]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(dst, tail[:]...)
}

// EncodeFrame returns the wire encoding of f.
func EncodeFrame(f Frame) []byte {
	return AppendFrame(make([]byte, 0, frameHdrSize+len(f.Payload)+frameCRCSize), f)
}

// DecodeFrame decodes one frame from the start of buf, returning the
// frame and the number of bytes consumed. The returned payload aliases
// buf. Malformed, truncated, or checksum-failing bytes yield ErrBadFrame
// (or a wrapped version error); the decoder never panics and never
// over-allocates on a corrupt length prefix.
func DecodeFrame(buf []byte) (Frame, int, error) {
	if len(buf) < frameHdrSize {
		return Frame{}, 0, ErrBadFrame
	}
	if binary.LittleEndian.Uint16(buf[0:]) != frameMagic {
		return Frame{}, 0, ErrBadFrame
	}
	if buf[2] != frameVersion {
		return Frame{}, 0, fmt.Errorf("%w: unsupported frame version %d", ErrBadFrame, buf[2])
	}
	kind := buf[3]
	if kind == 0 || kind > kindMax {
		return Frame{}, 0, fmt.Errorf("%w: unknown kind %d", ErrBadFrame, kind)
	}
	chunk := binary.LittleEndian.Uint32(buf[16:])
	chunks := binary.LittleEndian.Uint32(buf[20:])
	if err := validChunkFields(kind, chunk, chunks); err != nil {
		return Frame{}, 0, err
	}
	plen := binary.LittleEndian.Uint32(buf[24:])
	if plen > MaxFramePayload {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d exceeds limit", ErrBadFrame, plen)
	}
	total := frameHdrSize + int(plen) + frameCRCSize
	if len(buf) < total {
		return Frame{}, 0, ErrBadFrame
	}
	want := binary.LittleEndian.Uint32(buf[total-frameCRCSize:])
	if crc32.ChecksumIEEE(buf[:total-frameCRCSize]) != want {
		return Frame{}, 0, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	f := Frame{
		Kind:   kind,
		From:   int(binary.LittleEndian.Uint32(buf[4:])),
		To:     int(binary.LittleEndian.Uint32(buf[8:])),
		Seq:    binary.LittleEndian.Uint32(buf[12:]),
		Chunk:  chunk,
		Chunks: chunks,
	}
	if plen > 0 {
		f.Payload = buf[frameHdrSize : frameHdrSize+int(plen)]
	}
	return f, total, nil
}

// validChunkFields checks the chunk index/count of a frame header. Data
// kinds must declare 1 ≤ Chunks ≤ MaxChunksPerMessage with Chunk in
// range; a KindResend uses the fields as a re-request selector (Chunks
// 0 = whole stream, 1 = the single chunk index Chunk). The same rules
// are applied at both trust boundaries: here for wire bytes, and in the
// reassembler for frames that arrive by reference through ChanTransport.
func validChunkFields(kind byte, chunk, chunks uint32) error {
	if kind == KindResend {
		if chunks > 1 {
			return fmt.Errorf("%w: resend selector chunk count %d", ErrBadFrame, chunks)
		}
		return nil
	}
	if chunks == 0 || chunks > MaxChunksPerMessage {
		return fmt.Errorf("%w: chunk count %d outside [1, %d]", ErrBadFrame, chunks, MaxChunksPerMessage)
	}
	if chunk >= chunks {
		return fmt.Errorf("%w: chunk index %d of %d", ErrBadFrame, chunk, chunks)
	}
	return nil
}

// frameBufPool recycles the transient buffers frames are encoded into
// on the send path. Ownership rule: a pooled buffer never escapes the
// call that took it — WriteFrame encodes, writes, and returns the
// buffer before returning; buffers handed to callers
// (EncodeFrame results, decoded payloads) are never pooled.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// maxPooledFrameBuf caps the capacity of buffers returned to the pool:
// a 16 MiB single-frame encode should not pin 16 MiB of pool memory
// behind every future 100-byte frame.
const maxPooledFrameBuf = 1 << 20

func getFrameBuf() *[]byte { return frameBufPool.Get().(*[]byte) }

func putFrameBuf(b *[]byte) {
	if cap(*b) <= maxPooledFrameBuf {
		*b = (*b)[:0]
		frameBufPool.Put(b)
	}
}

// WriteFrame writes the wire encoding of f to w as a single Write,
// encoding through a pooled buffer so steady-state sends allocate
// nothing.
func WriteFrame(w io.Writer, f Frame) error {
	bp := getFrameBuf()
	*bp = AppendFrame((*bp)[:0], f)
	_, err := w.Write(*bp)
	if err == nil {
		mFramesOut.Inc()
		mBytesOut.Add(uint64(len(*bp)))
	}
	putFrameBuf(bp)
	return err
}

// ReadFrame reads exactly one frame from r, validating it like
// DecodeFrame. io.EOF is returned unchanged when the stream ends
// cleanly between frames. The frame is read into a fresh buffer every
// call, so the returned payload is owned by the caller and may be
// retained indefinitely.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := ReadFrameBuf(r, nil)
	return f, err
}

// ReadFrameBuf is ReadFrame with a caller-managed read buffer: the
// frame is read into buf (reusing its capacity, growing it only when
// the frame does not fit) and the grown-or-reused buffer is returned
// for the next call. On a steady-state connection this makes frame
// reads allocation-free.
//
// Payload-ownership handoff rule: the returned frame's payload ALIASES
// the returned buffer, so it is valid only until the next ReadFrameBuf
// (or any other write) on that buffer. A component that retains the
// payload past that point — a mailbox queue, a control message, a
// resend cache — must copy it first (copy-on-retain). The Endpoint
// read loop enforces this rule at the inbox boundary;
// TestReadFrameBufOwnership pins it down.
func ReadFrameBuf(r io.Reader, buf []byte) (Frame, []byte, error) {
	var hdr [frameHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, buf, io.EOF
		}
		return Frame{}, buf, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	plen := binary.LittleEndian.Uint32(hdr[24:])
	if plen > MaxFramePayload {
		return Frame{}, buf, fmt.Errorf("%w: payload length %d exceeds limit", ErrBadFrame, plen)
	}
	total := frameHdrSize + int(plen) + frameCRCSize
	if cap(buf) < total {
		buf = make([]byte, total)
	}
	buf = buf[:total]
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[frameHdrSize:]); err != nil {
		return Frame{}, buf, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	f, _, err := DecodeFrame(buf)
	if err == nil {
		mFramesIn.Inc()
		mBytesIn.Add(uint64(total))
	}
	return f, buf, err
}

// retainPayload returns f with its payload copied into a buffer f owns
// — the copy-on-retain side of the ReadFrameBuf handoff rule, applied
// by the Endpoint read loop immediately before a frame crosses into the
// inbox (which retains it until the protocol consumes it, long after
// the connection read buffer has been overwritten by the next frame).
func retainPayload(f Frame) Frame {
	if len(f.Payload) > 0 {
		f.Payload = append(make([]byte, 0, len(f.Payload)), f.Payload...)
	}
	return f
}

// Transport is the interconnect of an n-node simulated cluster. A
// transport delivers every sent frame to its destination mailbox at
// least once (decorators may duplicate, delay, or reorder); it never
// reorders the bytes inside a frame. Implementations must be safe for
// concurrent use by all nodes.
type Transport interface {
	// Send delivers f to node f.To's mailbox. It may block briefly on
	// backpressure but must not block indefinitely while the transport
	// is open; after Close it returns ErrClosed.
	Send(f Frame) error
	// Recv returns the next frame addressed to node id. timeout <= 0
	// blocks until a frame arrives or the transport closes; a positive
	// timeout yields ErrTimeout on expiry. After Close, Recv returns
	// ErrClosed.
	Recv(id int, timeout time.Duration) (Frame, error)
	// Nodes returns the cluster size.
	Nodes() int
	// Close tears down the interconnect and unblocks all pending
	// operations. Close is idempotent.
	Close() error
}

// TransportFactory builds the interconnect for an n-node cluster. The
// distributed operators own the returned transport and close it when
// the operation completes.
type TransportFactory func(n int) (Transport, error)

// inbox is one node's unbounded frame queue — the receive side of
// every built-in transport (ChanTransport holds one per node, a socket
// Endpoint exactly one): appends never block, and a 1-slot signal
// channel wakes the (single) receiver. A stale signal costs one
// spurious queue check; a missed one is impossible because the receiver
// re-checks the queue after every wakeup and the signal is set after
// every append. Inboxes are unbounded because chunked streams make the
// worst-case fan-in unknowable at transport construction: with any
// fixed capacity, two nodes exchanging chunk floods could each block in
// Send on the other's full inbox and deadlock. Memory stays bounded by
// what peers actually send — the reassembly budget is the defense
// against a hostile peer, not inbox backpressure.
type inbox struct {
	mu  sync.Mutex
	q   []Frame
	sig chan struct{}
}

func newInbox() *inbox { return &inbox{sig: make(chan struct{}, 1)} }

// put enqueues one frame and wakes the receiver. It never blocks.
func (b *inbox) put(f Frame) {
	b.mu.Lock()
	b.q = append(b.q, f)
	b.mu.Unlock()
	select {
	case b.sig <- struct{}{}:
	default:
	}
}

// get returns the next queued frame. timeout <= 0 blocks until a frame
// arrives; closed is the owning transport's close signal, checked
// first so every receive after Close reports ErrClosed.
func (b *inbox) get(timeout time.Duration, closed <-chan struct{}) (Frame, error) {
	var expired <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	for {
		if isClosed(closed) {
			return Frame{}, ErrClosed
		}
		b.mu.Lock()
		if len(b.q) > 0 {
			f := b.q[0]
			b.q[0] = Frame{} // drop the payload reference
			b.q = b.q[1:]
			if len(b.q) == 0 {
				b.q = nil // let a drained queue's backing array go
			}
			b.mu.Unlock()
			return f, nil
		}
		b.mu.Unlock()
		select {
		case <-b.sig:
		case <-expired:
			return Frame{}, ErrTimeout
		case <-closed:
			return Frame{}, ErrClosed
		}
	}
}

// ChanTransport is the in-process interconnect: one inbox per node.
// Frames are passed by reference: payloads are neither copied nor
// encoded.
type ChanTransport struct {
	boxes  []*inbox
	closed chan struct{}
	once   sync.Once
}

// NewChanTransport returns an in-process transport for n nodes.
func NewChanTransport(n int) *ChanTransport {
	t := &ChanTransport{boxes: make([]*inbox, n), closed: make(chan struct{})}
	for i := range t.boxes {
		t.boxes[i] = newInbox()
	}
	return t
}

func (t *ChanTransport) Nodes() int { return len(t.boxes) }

// Send delivers f to node f.To. Destinations out of range are rejected.
func (t *ChanTransport) Send(f Frame) error {
	if f.To < 0 || f.To >= len(t.boxes) {
		return fmt.Errorf("dist: send to node %d of %d-node cluster", f.To, len(t.boxes))
	}
	if isClosed(t.closed) {
		return ErrClosed
	}
	t.boxes[f.To].put(f)
	mChanFrames.Inc()
	return nil
}

// Recv returns the next frame addressed to node id.
func (t *ChanTransport) Recv(id int, timeout time.Duration) (Frame, error) {
	if id < 0 || id >= len(t.boxes) {
		return Frame{}, fmt.Errorf("dist: recv on node %d of %d-node cluster", id, len(t.boxes))
	}
	return t.boxes[id].get(timeout, t.closed)
}

// Close unblocks all pending sends and receives. Idempotent.
func (t *ChanTransport) Close() error {
	t.once.Do(func() { close(t.closed) })
	return nil
}

// ChanTransportFactory is the TransportFactory of NewChanTransport —
// the default interconnect of Reduce and AggregateByKey.
func ChanTransportFactory(n int) (Transport, error) { return NewChanTransport(n), nil }

// isClosed polls a transport's close signal.
func isClosed(closed <-chan struct{}) bool {
	select {
	case <-closed:
		return true
	default:
		return false
	}
}

// KindError payloads carry a 1-byte sentinel code before the error
// text, so the exported sentinels that can genuinely originate on a
// remote node (ErrStraggler, ErrBadFrame) stay matchable with
// errors.Is across the trust boundary. The facade's validation
// sentinels (ErrNoShards etc.) are checked before any node spawns and
// never cross the wire.
const (
	errCodeGeneric byte = iota
	errCodeStraggler
	errCodeBadFrame
	errCodeChunkBudget
	errCodeHandshake
)

// EncodeErr flattens an error into a KindError payload.
func EncodeErr(err error) []byte {
	code := errCodeGeneric
	switch {
	case errors.Is(err, ErrStraggler):
		code = errCodeStraggler
	case errors.Is(err, ErrBadFrame):
		code = errCodeBadFrame
	case errors.Is(err, ErrChunkBudget):
		code = errCodeChunkBudget
	case errors.Is(err, ErrHandshake):
		code = errCodeHandshake
	}
	return append([]byte{code}, err.Error()...)
}

// remoteError is a peer's failure, reconstructed from a KindError
// payload with its sentinel (if any) re-attached for errors.Is.
type remoteError struct {
	from     int
	text     string
	sentinel error
}

func (e *remoteError) Error() string {
	if e.from < 0 {
		// Control-plane errors of the multi-process runtime: the peer is
		// the supervisor, not a numbered cluster node.
		return fmt.Sprintf("dist: supervisor: %s", e.text)
	}
	return fmt.Sprintf("dist: node %d: %s", e.from, e.text)
}
func (e *remoteError) Unwrap() error { return e.sentinel }

// DecodeErr inverts EncodeErr for a KindError payload received from
// node from (a negative from names the supervisor of a multi-process
// run).
func DecodeErr(from int, payload []byte) error {
	if len(payload) == 0 {
		return &remoteError{from: from, text: "unspecified failure"}
	}
	e := &remoteError{from: from, text: string(payload[1:])}
	switch payload[0] {
	case errCodeStraggler:
		e.sentinel = ErrStraggler
	case errCodeBadFrame:
		e.sentinel = ErrBadFrame
	case errCodeChunkBudget:
		e.sentinel = ErrChunkBudget
	case errCodeHandshake:
		e.sentinel = ErrHandshake
	}
	return e
}

// dedup tracks which (from, seq) streams a node's reassembler has
// already completed, so duplicated deliveries and straggler
// retransmissions of finished messages are swallowed.
type dedup map[uint64]bool

func dedupKey(from int, seq uint32) uint64 {
	return uint64(uint32(from))<<32 | uint64(seq)
}
