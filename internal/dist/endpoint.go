package dist

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Endpoint is one node's socket side of the interconnect, and the only
// data-plane socket code in the repo: one TCP listener feeding one
// inbox, plus lazily dialed, cached, per-peer outgoing connections that
// are dropped on any write failure and re-dialed by the next send — so
// a severed socket mid-stream costs only the frames that were in
// flight, and the protocols' per-chunk KindResend path recovers them
// over a fresh connection. Frames a node addresses to itself are
// delivered by reference and never touch a socket. A chunked logical
// message is simply a sequence of independent wire frames here — each
// chunk is framed, checksummed and validated on its own, so one corrupt
// chunk poisons one connection rather than an entire stream.
//
// A worker process of the multi-process runtime holds exactly one
// Endpoint; TCPTransport is n of them in one process. Either way the
// aggregation protocols run unchanged: reproducibility comes from the
// canonical state algebra, not from any ordering the network might
// (fail to) provide.
type Endpoint struct {
	id    int
	ln    net.Listener
	in    *inbox
	peers *peerCounters
	pipes []pipe // outgoing connection per peer id; pipes[id] stays unused

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // accept loop and connection readers

	// mu guards addrs and conns. Lock order is always pipe.mu → mu.
	mu    sync.Mutex
	addrs []string
	// conns tracks every established connection (true: dialed by this
	// endpoint, false: accepted) so Close and Sever can cut them without
	// taking any pipe's write lock.
	conns map[net.Conn]bool
}

// pipe is one cached outgoing connection; writes are serialized so
// concurrent protocol sends cannot interleave frame bytes. It is dialed
// under its own lock, so one slow dial never stalls other peers. A
// frame leaves as one Write of its whole encoding (WriteFrame), so the
// connection needs no write buffer.
type pipe struct {
	mu sync.Mutex
	c  net.Conn
}

const (
	// sockBufSize sizes the per-connection buffered reader: big enough
	// that a default 16 MiB chunk still moves in few syscalls and a run
	// of small frames arrives in one, small enough to keep per-pair
	// memory modest.
	sockBufSize = 64 << 10
	dialTimeout = 5 * time.Second
)

// ListenEndpoint binds node id's listener of an n-node cluster on
// bindAddr and starts accepting. Peers are unknown until UpdatePeer
// installs their addresses (frames that arrive earlier simply queue in
// the inbox), so a node can announce Addr before the cluster's address
// table exists.
func ListenEndpoint(id, n int, bindAddr string) (*Endpoint, error) {
	return listenEndpoint(id, n, bindAddr, newPeerCounters(n))
}

func listenEndpoint(id, n int, bindAddr string, peers *peerCounters) (*Endpoint, error) {
	if id < 0 || id >= n {
		return nil, fmt.Errorf("dist: endpoint id %d outside %d-node cluster", id, n)
	}
	ln, err := net.Listen("tcp", bindAddr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen for node %d: %w", id, err)
	}
	e := &Endpoint{
		id:     id,
		ln:     ln,
		in:     newInbox(),
		peers:  peers,
		pipes:  make([]pipe, n),
		closed: make(chan struct{}),
		addrs:  make([]string, n),
		conns:  make(map[net.Conn]bool),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr is the bound listen address, for the cluster's peer table.
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

func (e *Endpoint) Nodes() int { return len(e.pipes) }

// Recv returns the next frame addressed to this endpoint's node.
func (e *Endpoint) Recv(id int, timeout time.Duration) (Frame, error) {
	if id != e.id {
		return Frame{}, fmt.Errorf("dist: recv for node %d on node %d's endpoint", id, e.id)
	}
	return e.in.get(timeout, e.closed)
}

// acceptLoop accepts inbound peer connections and spawns one reader per
// connection.
func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !e.track(c, false) {
			return
		}
		e.wg.Add(1)
		go e.readLoop(c)
	}
}

// readLoop decodes frames off one inbound connection into the inbox. A
// frame that fails validation poisons only its connection: the reader
// stops, and recovery stays with the protocol's re-request layer, which
// re-requests only the chunks that were lost with the connection.
//
// Frames are read into one per-connection buffer reused across
// iterations (ReadFrameBuf), so the steady-state read path allocates
// only what it retains: decoded payloads alias the read buffer and are
// copied exactly once (retainPayload) before the inbox — which holds
// them until the protocol consumes them — takes the frame. Misrouted
// and payload-free frames never pay the copy.
func (e *Endpoint) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer e.untrack(c)
	br := bufio.NewReaderSize(c, sockBufSize)
	var buf []byte // connection read buffer; every decoded payload aliases it
	for {
		f, nbuf, err := ReadFrameBuf(br, buf)
		if err != nil {
			return // EOF, peer close, severed socket, or corrupt stream
		}
		buf = nbuf
		if f.To != e.id {
			continue // misrouted frame: drop at the trust boundary
		}
		e.peers.received(f.From, len(f.Payload))
		e.in.put(retainPayload(f))
	}
}

// Send delivers f: by reference through the inbox when the destination
// is this node, through the cached (re-dialed on demand) peer
// connection otherwise.
func (e *Endpoint) Send(f Frame) error {
	to := f.To
	if to < 0 || to >= len(e.pipes) {
		return fmt.Errorf("dist: send to node %d of %d-node cluster", to, len(e.pipes))
	}
	if isClosed(e.closed) {
		return ErrClosed
	}
	if to == e.id {
		e.in.put(f)
		mChanFrames.Inc()
		return nil
	}
	p := &e.pipes[to]
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := e.dialLocked(p, to); err != nil {
		return err
	}
	if err := WriteFrame(p.c, f); err != nil {
		e.resetLocked(p)
		return e.sendErr(err)
	}
	e.peers.sent(to, len(f.Payload))
	return nil
}

// dialLocked establishes the pipe's connection if needed; the caller
// must hold p.mu.
func (e *Endpoint) dialLocked(p *pipe, to int) error {
	if p.c != nil {
		return nil
	}
	e.mu.Lock()
	addr := e.addrs[to]
	e.mu.Unlock()
	if addr == "" {
		return e.sendErr(fmt.Errorf("no address for node %d yet", to))
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return e.sendErr(fmt.Errorf("dial node %d: %w", to, err))
	}
	if !e.track(c, true) {
		return ErrClosed
	}
	p.c = c
	return nil
}

// resetLocked drops a pipe's (possibly already severed) connection so
// the next send re-dials; the caller must hold p.mu.
func (e *Endpoint) resetLocked(p *pipe) {
	if p.c != nil {
		e.untrack(p.c)
		p.c = nil
	}
}

// track registers an established connection. Registration and the
// closed check share one critical section: Close closes e.closed before
// it sweeps e.conns, so a connection either registers in time to be
// swept or is closed here — never neither.
func (e *Endpoint) track(c net.Conn, outgoing bool) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if isClosed(e.closed) {
		c.Close()
		return false
	}
	e.conns[c] = outgoing
	return true
}

func (e *Endpoint) untrack(c net.Conn) {
	c.Close()
	e.mu.Lock()
	delete(e.conns, c)
	e.mu.Unlock()
}

// sendErr maps write failures after Close to ErrClosed, so protocol
// teardown (root done, transport closed, stragglers still flushing) is
// not reported as a network failure.
func (e *Endpoint) sendErr(err error) error {
	if isClosed(e.closed) {
		return ErrClosed
	}
	return fmt.Errorf("dist: node %d send: %w", e.id, err)
}

// UpdatePeer points peer id at a data-plane address: the initial
// address table, and the mid-run replacement path — a substitute worker
// binds a fresh listener, and every surviving peer swaps its table
// entry and drops the cached pipe so the next send (or per-chunk
// re-request) dials the substitute instead of the dead worker's stale
// address.
func (e *Endpoint) UpdatePeer(id int, addr string) {
	if id < 0 || id >= len(e.pipes) || id == e.id || addr == "" {
		return
	}
	e.mu.Lock()
	same := e.addrs[id] == addr
	e.addrs[id] = addr
	e.mu.Unlock()
	if same {
		return
	}
	p := &e.pipes[id]
	p.mu.Lock()
	e.resetLocked(p)
	p.mu.Unlock()
}

// Sever closes every established outgoing connection: in-flight writes
// fail and their owners re-dial on next use. It is the socket failure a
// fault injector forces mid-stream.
func (e *Endpoint) Sever() {
	e.mu.Lock()
	for c, outgoing := range e.conns {
		if outgoing {
			c.Close()
		}
	}
	e.mu.Unlock()
}

// Close tears down the listener and every connection, unblocks pending
// operations, and waits for the reader goroutines to drain. Idempotent.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.closed)
		e.ln.Close()
		e.mu.Lock()
		for c := range e.conns {
			c.Close()
		}
		e.mu.Unlock()
		e.wg.Wait()
	})
	return nil
}

// TCPTransport is a real network interconnect for the simulated
// cluster: n Endpoints in one process, each on its own loopback port.
// Send routes a frame to its sender's endpoint (Frame.From) and Recv to
// the receiver's, so every cross-node frame travels length-prefixed and
// CRC-protected through actual kernel sockets.
type TCPTransport struct {
	eps []*Endpoint
}

// NewTCPTransport starts an n-node TCP interconnect on loopback.
func NewTCPTransport(n int) (*TCPTransport, error) {
	if n < 1 {
		return nil, ErrNoShards
	}
	t := &TCPTransport{eps: make([]*Endpoint, 0, n)}
	peers := newPeerCounters(n)
	for id := 0; id < n; id++ {
		e, err := listenEndpoint(id, n, "127.0.0.1:0", peers)
		if err != nil {
			t.Close()
			return nil, err
		}
		t.eps = append(t.eps, e)
	}
	for _, e := range t.eps {
		for _, peer := range t.eps {
			e.UpdatePeer(peer.id, peer.Addr())
		}
	}
	return t, nil
}

func (t *TCPTransport) Nodes() int { return len(t.eps) }

// endpoint returns node id's endpoint.
func (t *TCPTransport) endpoint(id int) (*Endpoint, error) {
	if id < 0 || id >= len(t.eps) {
		return nil, fmt.Errorf("dist: node %d outside %d-node cluster", id, len(t.eps))
	}
	return t.eps[id], nil
}

func (t *TCPTransport) Recv(id int, timeout time.Duration) (Frame, error) {
	e, err := t.endpoint(id)
	if err != nil {
		return Frame{}, err
	}
	return e.Recv(id, timeout)
}

func (t *TCPTransport) Send(f Frame) error {
	e, err := t.endpoint(f.From)
	if err != nil {
		return err
	}
	return e.Send(f)
}

// Close closes every endpoint. Idempotent.
func (t *TCPTransport) Close() error {
	for _, e := range t.eps {
		e.Close()
	}
	return nil
}

// TCPTransportFactory is the TransportFactory of NewTCPTransport.
func TCPTransportFactory(n int) (Transport, error) { return NewTCPTransport(n) }

// interface conformance
var (
	_ Transport = (*ChanTransport)(nil)
	_ Transport = (*Endpoint)(nil)
	_ Transport = (*TCPTransport)(nil)
)

// peerCounters is an endpoint's pre-resolved per-peer data-plane
// series: frames and payload bytes exchanged with each peer id, as
// repro_dist_peer_*_total{peer="N"}. Resolved once at construction so
// the send/receive paths touch only atomics.
type peerCounters struct {
	framesOut, bytesOut, framesIn, bytesIn []*obs.Counter
}

func newPeerCounters(n int) *peerCounters {
	series := func(name, help string) []*obs.Counter {
		cs := make([]*obs.Counter, n)
		for id := range cs {
			cs[id] = obs.Default.Counter(name+`{peer="`+strconv.Itoa(id)+`"}`, help)
		}
		return cs
	}
	return &peerCounters{
		framesOut: series("repro_dist_peer_frames_out_total", "Data-plane frames sent to each peer id."),
		bytesOut:  series("repro_dist_peer_payload_bytes_out_total", "Data-plane payload bytes sent to each peer id."),
		framesIn:  series("repro_dist_peer_frames_in_total", "Data-plane frames received from each peer id."),
		bytesIn:   series("repro_dist_peer_payload_bytes_in_total", "Data-plane payload bytes received from each peer id."),
	}
}

func (pc *peerCounters) sent(to, payloadLen int) {
	pc.framesOut[to].Inc()
	pc.bytesOut[to].Add(uint64(payloadLen))
}

// received bounds-checks the peer id: From comes off the wire.
func (pc *peerCounters) received(from, payloadLen int) {
	if from >= 0 && from < len(pc.framesIn) {
		pc.framesIn[from].Inc()
		pc.bytesIn[from].Add(uint64(payloadLen))
	}
}
