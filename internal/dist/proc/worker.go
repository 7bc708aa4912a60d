package proc

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
)

// The worker side of the elastic cluster runtime. Every worker process
// — spawned by the supervisor or started by an operator — is given
// nothing but the control address (-join), and then:
//
//  1. dials it and attaches through the one admission handshake: a join
//     hello announcing its build — nothing but what it was compiled
//     with, plus id, config digest and fencing epoch when it is a
//     returning member — answered by KindConf with the cluster config
//     and its node slot; from then on it is a member, and pings the
//     supervisor with its wire counters every conf.Heartbeat,
//  2. waits for KindJob: the operation, its shape, and the count and
//     width of this node's rows, which it charges against the
//     connection's budget, takes from the last job's memory (jobMemory)
//     or allocates, and fills in place from the KindRows chunks that
//     follow (rowSink),
//  3. binds a fresh data-plane listener per job, announces it with
//     KindReady at once (the peer-table round trip overlaps the rows
//     stream), and when KindPeers and the last row are both in runs its
//     node's role of the aggregation protocol over real sockets — the
//     root also ships the finalized result back as KindResult,
//  4. on a later KindPeers epoch re-points its peer table at a
//     replacement's fresh listener (the reconnect-safe transport
//     re-dials; per-chunk resends recover anything in flight),
//  5. tears the job's data plane down at KindJobDone and waits for the
//     next job, until KindShutdown.
//
// A worker that loses the supervisor connection does not exit: it
// tears down the current job, redials with capped exponential backoff
// + jitter, and attaches again through the same handshake — which is
// what lets a journaled supervisor be kill -9'd and restarted without
// restarting its workers.

// workerEnv marks a process as a spawned cluster worker when the
// supervisor re-executes the current binary (the default when no
// explicit reproworker binary is configured). MaybeWorkerMain checks
// it; cmd/reproworker needs no marker.
const workerEnv = "REPRO_WORKER_PROCESS"

// Worker process exit codes. They are part of cmd/reproworker's
// contract: an operator's init system can tell a rejected join (wrong
// build, wrong config — retrying is pointless) from a runtime failure.
const (
	// ExitOK is a clean exit after KindShutdown.
	ExitOK = 0
	// ExitFailure is any runtime failure (lost supervisor, protocol
	// error, bad flags that parsed but don't make sense).
	ExitFailure = 1
	// ExitUsage is a command-line usage error.
	ExitUsage = 2
	// ExitHandshake means the join failed in a way retrying won't fix:
	// the supervisor rejected the handshake (wrong build or cluster
	// config), or the control address stayed unreachable through the
	// whole -join-timeout retry window.
	ExitHandshake = 3
	// exitInjectedDeath is the injected-death test hook's exit code,
	// distinguishable from every deliberate exit above.
	exitInjectedDeath = 7
)

// MaybeWorkerMain turns the current process into a cluster worker and
// never returns when it was spawned as one (workerEnv is set);
// otherwise it returns immediately. Programs that use the process
// cluster through re-execution — tests, reproserve, anything calling
// the facade's NewCluster without REPROWORKER_BIN naming a separate
// reproworker binary — must call it at the top of main (or TestMain),
// before flag parsing.
func MaybeWorkerMain() {
	if os.Getenv(workerEnv) == "" {
		return
	}
	os.Exit(WorkerMain(os.Args[1:]))
}

const workerUsage = `usage: reproworker -join <addr> [-join-timeout <dur>] [-advertise <host[:port]>]
                   [-metrics-addr <addr>]

A reproducible-aggregation cluster worker (see internal/dist/proc).

-join is the cluster's control address (Cluster.Addr()) and the only
thing a worker needs: a supervisor starts its own workers with exactly
this line, and an operator adds capacity from another shell or machine
the same way. The worker retries an unreachable address with capped
exponential backoff + jitter until -join-timeout (default 30s)
elapses and announces its build. The supervisor admits it into the
lowest free slot by sending it the cluster configuration, parks it as
a standby for mid-run replacement, or rejects it.

-advertise rewrites the data-plane address this worker announces to
the cluster's peer table, for machines where the bound address is not
what peers should dial: a bare host keeps the per-job bound port
(multi-NIC), host:port additionally binds that fixed data-plane port
(stable NAT or port-forward mappings). Default: the bound address.

A worker that loses its supervisor connection does not exit: it parks,
redials with the same backoff, and attaches again through the same
handshake (now naming the slot, config digest and epoch it held) — so
a journaled supervisor (ClusterSpec.Journal) can crash and restart
without its workers being restarted.

-metrics-addr serves this worker's own process metrics (wire frame and
chunk counters, see internal/obs) as Prometheus text on
<addr>/metrics. The same counters also ride each heartbeat ping to the
supervisor, so the flag is for direct scraping, not cluster health.

exit codes:
  0  clean shutdown
  1  runtime failure
  2  usage error
  3  join rejected (incompatible build or cluster config), or the
     control address stayed unreachable for the whole join window
`

// WorkerMain parses worker flags from args, runs the worker loop, and
// returns the process exit code. cmd/reproworker calls it directly.
func WorkerMain(args []string) int {
	fs := flag.NewFlagSet("reproworker", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	join := fs.String("join", "", "cluster control address to join (from Cluster.Addr())")
	joinTimeout := fs.Duration("join-timeout", 30*time.Second, "how long -join keeps retrying an unreachable control address")
	advertise := fs.String("advertise", "", "data-plane address to announce to peers: host or host:port (default: the bound address)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus-text /metrics on this address (default: off)")
	fs.Usage = func() { fmt.Fprint(os.Stderr, workerUsage) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return ExitOK
		}
		return ExitUsage
	}
	if *join == "" {
		fmt.Fprintln(os.Stderr, "reproworker: -join is required; see -help")
		return ExitUsage
	}
	if *joinTimeout <= 0 {
		fmt.Fprintln(os.Stderr, "reproworker: -join-timeout must be positive")
		return ExitUsage
	}
	if *advertise != "" && strings.Contains(*advertise, ":") {
		if _, p, err := net.SplitHostPort(*advertise); err != nil || p == "" {
			fmt.Fprintln(os.Stderr, "reproworker: -advertise must be a host or host:port (bracket IPv6 hosts)")
			return ExitUsage
		}
	}
	if *metricsAddr != "" {
		// Best-effort observability sidecar: a worker whose metrics port
		// is taken still does its job, it just says so.
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler())
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "reproworker: metrics listener: %v\n", err)
			}
		}()
	}
	if err := runJoiner(*join, *advertise, *joinTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "reproworker: %v\n", err)
		if errors.Is(err, dist.ErrHandshake) || errors.Is(err, errJoinExhausted) {
			return ExitHandshake
		}
		return ExitFailure
	}
	return ExitOK
}

// ctlConn is one control connection, at either end. One goroutine owns
// the read side; sends are serialized per message, because several
// write (a worker's main loop, heartbeat ticker and protocol goroutine;
// the supervisor's loop and row shippers). The write deadline is
// re-armed for every frame: a peer is gone after writeTimeout without
// progress, not for being slow over a large message.
type ctlConn struct {
	conn net.Conn
	br   *bufio.Reader
	rbuf []byte // every frame is read into it; see read

	mu           sync.Mutex
	maxChunk     int // 0 (the codec default) until KindConf sets the agreed size
	writeTimeout time.Duration
}

func newCtlConn(conn net.Conn, maxChunk int) *ctlConn {
	return &ctlConn{
		conn: conn, br: bufio.NewReaderSize(conn, sockBufSize),
		maxChunk: maxChunk, writeTimeout: ctlWriteTimeout,
	}
}

// send ships one control message, chunked like any other large message
// (a KindRows frame already is one chunk of its stream).
func (c *ctlConn) send(f dist.Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	chunks := []dist.Frame{f}
	if f.Kind != dist.KindRows {
		chunks = dist.SplitFrame(f, c.maxChunk)
	}
	for _, ch := range chunks {
		c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
		if err := dist.WriteFrame(c.conn, ch); err != nil {
			return err
		}
	}
	return nil
}

// read returns the next control message. TCP neither reorders,
// duplicates nor replays a frame, and send writes a message's chunks
// back to back, so a message is its first frame and the Chunks−1
// frames that follow it. Anything else between them (another kind or
// stream, a chunk out of place or off the first chunk's stride) is
// ErrBadFrame; a message whose chunks could outgrow ctlBudget is
// ErrChunkBudget on its first frame, and its payload grows only with
// the chunks that arrive. The connection remembers no message, so any
// number may share a (from, seq) stream. A KindRows frame is one
// self-contained chunk of its stream, ordered and budgeted by its
// rowSink, and is returned as it arrives: its payload aliases the read
// buffer until the next read; every other payload is copied out of it.
func (c *ctlConn) read() (dist.Frame, error) {
	f, err := c.next()
	if err != nil || f.Kind == dist.KindRows {
		return f, err
	}
	stride := len(f.Payload)
	if f.Chunk != 0 {
		return dist.Frame{}, fmt.Errorf("%w: control message opens with chunk %d of %d",
			dist.ErrBadFrame, f.Chunk, f.Chunks)
	}
	if int64(stride)*int64(f.Chunks) > ctlBudget {
		return dist.Frame{}, fmt.Errorf("%w: %d-chunk control message of %d-byte chunks exceeds %d bytes",
			dist.ErrChunkBudget, f.Chunks, stride, ctlBudget)
	}
	msg := f
	msg.Chunks = 1
	msg.Payload = bytes.Clone(f.Payload)
	for i := uint32(1); i < f.Chunks; i++ {
		g, err := c.next()
		if err != nil {
			return dist.Frame{}, err
		}
		if g.Kind != f.Kind || g.From != f.From || g.To != f.To || g.Seq != f.Seq ||
			g.Chunks != f.Chunks || g.Chunk != i || len(g.Payload) > stride ||
			i < f.Chunks-1 && len(g.Payload) != stride {
			return dist.Frame{}, fmt.Errorf("%w: kind %d chunk %d of %d (%d bytes) inside chunk %d of %d-chunk kind %d message",
				dist.ErrBadFrame, g.Kind, g.Chunk, g.Chunks, len(g.Payload), i, f.Chunks, f.Kind)
		}
		msg.Payload = append(msg.Payload, g.Payload...)
	}
	return msg, nil
}

// next reads one frame into the connection's read buffer.
func (c *ctlConn) next() (dist.Frame, error) {
	f, buf, err := dist.ReadFrameBuf(c.br, c.rbuf)
	c.rbuf = buf
	return f, err
}

// Control-connection tuning. ctlBudget bounds the message, and again
// the streamed-in rows, one connection can make its reader hold.
// Dial attempts back off exponentially from
// backoffBase to backoffCap with ±25% jitter; a detached worker keeps
// redialing for at most reattachWindow before giving up.
const (
	sockBufSize     = 64 << 10
	ctlBudget       = dist.DefaultReassemblyBudget
	ctlWriteTimeout = 30 * time.Second
	dialTimeout     = 5 * time.Second

	backoffBase    = 100 * time.Millisecond
	backoffCap     = 2 * time.Second
	reattachWindow = 60 * time.Second
)

// backoffDelay is the capped exponential backoff with jitter for dial
// attempt n (0-based). The jitter keeps a cluster's worth of orphaned
// workers from redialing a restarting supervisor in lockstep.
func backoffDelay(n int) time.Duration {
	d := backoffBase << uint(n)
	if n > 10 || d <= 0 || d > backoffCap {
		d = backoffCap
	}
	return d*3/4 + time.Duration(rand.Int64N(int64(d)/2))
}

// errCtlLost marks a lost supervisor connection — the one failure the
// worker answers with backoff and another attach instead of exiting.
var errCtlLost = errors.New("control connection lost")

// errJoinExhausted means a worker that was never admitted ran its whole
// dial window without reaching the control address. WorkerMain maps it
// to ExitHandshake: like a rejection, retrying the same line is
// pointless.
var errJoinExhausted = errors.New("join window exhausted")

// dialControl dials addr with capped exponential backoff + jitter for
// at most window.
func dialControl(addr string, window time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(window)
	for attempt := 0; ; attempt++ {
		cc, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			return cc, nil
		}
		d := backoffDelay(attempt)
		if time.Now().Add(d).After(deadline) {
			return nil, fmt.Errorf("%s unreachable for %v: %w", addr, window, err)
		}
		time.Sleep(d)
	}
}

// workerSession is a worker's durable identity across control
// connections: once admitted, the slot and config it holds and the last
// fencing epoch it attached at.
type workerSession struct {
	advertise string // operator's -advertise override, "" for bound
	id        int    // node slot, -1 until first admitted
	conf      clusterConf
	raw       []byte
	epoch     uint64

	// mem is the memory of a job, nil while a job holds it (see
	// jobMemory).
	mem *jobMemory

	// lastRTT is the round trip the worker measured from the
	// supervisor's last pong echo, shipped in the next heartbeat. Atomic:
	// the heartbeat ticker goroutine reads it while the main loop writes.
	lastRTT atomic.Int64
}

// jobMemory is what one job of a session leaves to the next, as the
// paper's operator reuses its per-thread tables across partitions: the
// input arrays its rows stream filled (rowSink) and its node's GROUP BY
// memory (dist.NodeMemory: scatter targets, tables, shuffle and gather
// payloads). prepareJob hands it to a job and workerJob.stop takes it
// back once the job's goroutine has ended and its transport is closed;
// a session's jobs run strictly one after another, so no two ever hold
// it, and nothing is shared between sessions. It grows to the largest
// job the worker has run and keeps that size between jobs.
type jobMemory struct {
	keys []uint32
	vals []float64
	node dist.NodeMemory
}

// processNonce names this process in its heartbeats. Every session of
// the process reports the process-global wire counters under it, so the
// supervisor folds them once per process: across re-attaches, and apart
// from a replacement that took over the same slot.
var processNonce = rand.Uint64()

// runJoiner is a worker's whole life: dial (with retries, for window),
// attach, serve jobs — and whenever the connection is lost, parked or
// mid-handshake or mid-job, dial again for reattachWindow (the
// supervisor may be restarting) and attach again, until shutdown or a
// typed rejection.
func runJoiner(control, advertise string, window time.Duration) error {
	s := &workerSession{advertise: advertise, id: -1, mem: new(jobMemory)}
	for {
		cc, err := dialControl(control, window)
		if err != nil {
			if s.id < 0 {
				return fmt.Errorf("%w: %v", errJoinExhausted, err)
			}
			return err
		}
		c, err := s.attach(cc)
		if c != nil {
			err = s.serve(c)
		}
		cc.Close()
		if !errors.Is(err, errCtlLost) {
			return err
		}
		fmt.Fprintf(os.Stderr, "reproworker: %v; redialing %s\n", err, control)
		window = reattachWindow
		time.Sleep(backoffDelay(0)) // a peer that accepts and hangs up must not be spun on
	}
}

// attach runs the admission handshake — the only way into a cluster —
// on a fresh control connection. The join hello announces the build; a
// returning member's also carries the slot, config digest and epoch it
// held, so a restarted supervisor that recognizes the id from its
// journal hands the recorded slot back (if a replacement took it
// meanwhile, whatever slot the cluster assigns is adopted). The
// supervisor answers with KindConf — at once, or whenever a slot frees
// up if it parked the worker as a standby first, so the wait is
// unbounded — and the worker is a member from then on: its next frame
// may already be the current job. A nil ctlConn with a nil error means
// the cluster shut down while the worker was parked.
func (s *workerSession) attach(cc net.Conn) (*ctlConn, error) {
	c := newCtlConn(cc, s.conf.MaxChunkPayload)
	h := hello{version: dist.FrameVersion, levels: byte(core.DefaultLevels), specver: specVersion}
	if s.id >= 0 {
		h.returning, h.digest, h.epoch = true, confDigest(s.raw), s.epoch
	}
	err := c.send(dist.Frame{Kind: dist.KindHello, From: s.id, Seq: ctrlSeqCluster, Payload: encodeHello(h)})
	if err != nil {
		return nil, fmt.Errorf("%w: sending join hello: %v", errCtlLost, err)
	}
	for {
		msg, err := c.read()
		if err != nil {
			return nil, fmt.Errorf("%w: awaiting admission: %v", errCtlLost, err)
		}
		switch msg.Kind {
		case dist.KindError:
			return nil, dist.DecodeErr(-1, msg.Payload)
		case dist.KindShutdown:
			return nil, nil
		case dist.KindConf:
			id, epoch, raw, err := decodeConfFrame(msg.Payload)
			if err != nil {
				return nil, err
			}
			if epoch < s.epoch {
				// The fence, worker side: a supervisor from an older
				// incarnation must not win this worker back.
				return nil, fmt.Errorf("%w: supervisor is at stale epoch %d, this worker has seen %d",
					dist.ErrHandshake, epoch, s.epoch)
			}
			conf, err := decodeConf(raw)
			if err != nil {
				return nil, err
			}
			if id < 0 || id >= conf.N {
				return nil, fmt.Errorf("assigned node id %d outside the %d-node cluster", id, conf.N)
			}
			s.id, s.epoch, s.conf, s.raw = id, epoch, conf, raw
			c.maxChunk = conf.MaxChunkPayload
			return c, nil
		}
	}
}

// workerJob is one job's worker-side state. Its protocol goroutine
// starts once the peers are known and its rows are all in.
type workerJob struct {
	spec    jobSpec
	mem     *jobMemory     // the session's, until stop hands it back
	sink    *rowSink       // fills the job's input from the rows stream
	ep      *dist.Endpoint // this node's data plane, bound per job
	tr      dist.Transport // what the protocol runs on: ep, maybe with faults
	peers   []string       // the latest KindPeers table, nil until the first
	started bool
	done    chan struct{} // closed when the protocol goroutine finishes
}

// stop tears the job's data plane down, waits for its protocol
// goroutine and returns the job's memory for the next. The endpoint
// close makes the goroutine's next Recv or Send fail with ErrClosed,
// which it swallows as a deliberate abort; closing the transport then
// waits out a fault plan's delayed deliveries, which still read the
// frames in the memory.
func (j *workerJob) stop() *jobMemory {
	j.ep.Close()
	if j.started {
		<-j.done
		j.tr.Close()
	}
	return j.mem
}

// serve runs the job loop over an attached control connection until
// shutdown. It owns the connection's read side. A lost connection is
// returned wrapped in errCtlLost, which runJoiner answers with another
// attach instead of exit.
func (s *workerSession) serve(c *ctlConn) error {
	id, conf := s.id, s.conf
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(conf.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				// A failed ping is not this goroutine's problem: the
				// read loop sees the connection die and ends the worker.
				// The payload doubles as the worker's telemetry report:
				// wire counters, this process's nonce, and the RTT
				// measured from the supervisor's previous pong echo.
				_ = c.send(dist.Frame{
					Kind: dist.KindPing, From: id, Seq: ctrlSeqCluster,
					Payload: encodePingStats(pingStats{
						sentNanos: time.Now().UnixNano(),
						rttNanos:  s.lastRTT.Load(),
						nonce:     processNonce,
						wire:      dist.ReadWireStats(),
					}),
				})
			case <-stop:
				return
			}
		}
	}()

	var cur *workerJob
	defer func() {
		if cur != nil {
			s.mem = cur.stop()
		}
	}()
	tryStart := func() {
		if !cur.started && cur.peers != nil && cur.sink.complete() {
			startJob(cur, c, id, conf, cur.peers)
		}
	}
	for {
		msg, err := c.read()
		if err != nil {
			return fmt.Errorf("%w: %v", errCtlLost, err)
		}
		switch msg.Kind {
		case dist.KindError:
			return dist.DecodeErr(-1, msg.Payload)
		case dist.KindShutdown:
			return nil
		case dist.KindPing:
			// The supervisor's pong echoes this worker's ping payload;
			// the echoed send timestamp yields an honest worker-measured
			// RTT, shipped back in the next heartbeat.
			if p, err := decodePingStats(msg.Payload); err == nil && p.sentNanos > 0 {
				if rtt := time.Now().UnixNano() - p.sentNanos; rtt > 0 {
					s.lastRTT.Store(rtt)
				}
			}
		case dist.KindJobDone:
			if cur != nil {
				s.mem, cur = cur.stop(), nil
			}
		case dist.KindJob:
			if cur != nil {
				// The control stream is ordered, so a new job means the
				// old one is over for the supervisor, however it ended.
				s.mem, cur = cur.stop(), nil
			}
			js, err := decodeJobSpec(msg.Payload)
			if err != nil {
				// The frame still names its job by its control seq;
				// answer there so the supervisor can fail the right job
				// instead of hitting a timeout.
				reportErr(c, id, msg.Seq, err)
				continue
			}
			job, announce, err := prepareJob(c.conn, id, conf, js, s.advertise, s.mem)
			if err != nil {
				reportErr(c, id, ctrlSeqJob(js.jobIdx), err)
				continue
			}
			cur, s.mem = job, nil
			err = c.send(dist.Frame{
				Kind: dist.KindReady, From: id, Seq: ctrlSeqJob(js.jobIdx),
				Payload: encodeReady(js.jobIdx, announce),
			})
			if err != nil {
				return fmt.Errorf("%w: %v", errCtlLost, err)
			}
		case dist.KindRows:
			if cur == nil {
				continue // straggler of a job this worker is done with
			}
			if err := cur.sink.accept(msg); err != nil {
				reportErr(c, id, ctrlSeqJob(cur.spec.jobIdx), err)
				s.mem, cur = cur.stop(), nil
				continue
			}
			tryStart()
		case dist.KindPeers:
			jobIdx, _, addrs, err := decodePeers(msg.Payload)
			if err != nil || cur == nil || jobIdx != cur.spec.jobIdx || len(addrs) != conf.N {
				continue
			}
			if !cur.started {
				cur.peers = addrs
				tryStart()
				continue
			}
			// A later epoch: a replacement took over a slot; re-point
			// the peer table (the endpoint re-dials lazily).
			for peer, addr := range addrs {
				cur.ep.UpdatePeer(peer, addr)
			}
		}
	}
}

// reportErr announces a job-scoped failure to the supervisor on the
// job's stream id, seq. Send failures are ignored: a dead control
// connection surfaces in the read loop.
func reportErr(c *ctlConn, id int, seq uint32, err error) {
	_ = c.send(dist.Frame{
		Kind: dist.KindError, From: id, Seq: seq,
		Payload: dist.EncodeErr(err),
	})
}

// prepareJob hands the session's memory (jobMemory) to the job: the
// arrays this node's rows stream fills come from it where they are big
// enough, and so do the GROUP BY's scatter targets, tables and payloads,
// so a worker keeps the memory of its largest job. The job's stop hands
// the memory back; on an error the session keeps it. prepareJob also
// binds the job's data-plane endpoint on the control connection's local
// interface (loopback for a local cluster, the routable interface the
// worker joined over for a remote one). It returns the address to
// announce to the peer table: the bound address by default, rewritten
// by -advertise for multi-NIC or NAT'd machines — a bare host keeps
// the bound port, host:port also pins the listener to that port.
func prepareJob(cc net.Conn, id int, conf clusterConf, js jobSpec, advertise string, mem *jobMemory) (*workerJob, string, error) {
	sink, err := newRowSink(js, ctlBudget, mem)
	if err != nil {
		return nil, "", err
	}
	job := &workerJob{spec: js, mem: mem, sink: sink, done: make(chan struct{})}
	host, _, err := net.SplitHostPort(cc.LocalAddr().String())
	if err != nil {
		host = "127.0.0.1"
	}
	bindPort, advHost := "0", ""
	if advertise != "" {
		if h, p, err := net.SplitHostPort(advertise); err == nil {
			advHost, bindPort = h, p
		} else {
			advHost = advertise
		}
	}
	job.ep, err = dist.ListenEndpoint(id, conf.N, net.JoinHostPort(host, bindPort))
	if err != nil {
		return nil, "", fmt.Errorf("binding data-plane listener: %w", err)
	}
	announce := job.ep.Addr()
	if advHost != "" {
		_, boundPort, err := net.SplitHostPort(announce)
		if err != nil {
			job.ep.Close()
			return nil, "", fmt.Errorf("binding data-plane listener: %w", err)
		}
		announce = net.JoinHostPort(advHost, boundPort)
	}
	return job, announce, nil
}

// injectedFaults decorates a worker's endpoint with the forced
// failures of the reconnect and replacement scenarios: just before the
// node's dieAfter-th data frame leaves, the whole process exits
// mid-stream; just before its killAfter-th, every outgoing connection
// is severed once and the frame is lost with them (the receiver's
// per-chunk re-requests recover it over fresh connections). Frames to
// the node itself never reach a socket and resend traffic must not
// re-trip a fault, so neither counts. Every frame of the protocol
// leaves through Send, so it sees them all.
type injectedFaults struct {
	dist.Transport
	ep                  *dist.Endpoint
	id                  int
	killAfter, dieAfter int64 // <= 0 disables
	nsent               atomic.Int64
}

func (t *injectedFaults) Send(f dist.Frame) error {
	if f.To != t.id && f.Kind != dist.KindResend {
		switch t.nsent.Add(1) {
		case t.dieAfter:
			os.Exit(exitInjectedDeath)
		case t.killAfter:
			t.ep.Sever()
			return fmt.Errorf("proc: node %d: injected socket kill", t.id)
		}
	}
	return t.Transport.Send(f)
}

// startJob points the job's endpoint at its peers and runs this node's
// role of the protocol in a goroutine.
func startJob(job *workerJob, c *ctlConn, id int, conf clusterConf, addrs []string) {
	js := job.spec
	for peer, addr := range addrs {
		job.ep.UpdatePeer(peer, addr)
	}
	var ptr dist.Transport = job.ep
	inj := &injectedFaults{Transport: job.ep, ep: job.ep, id: id}
	if conf.KillNode == id {
		inj.killAfter = int64(conf.KillAfter)
	}
	if conf.DieNode == id {
		inj.dieAfter = int64(conf.DieAfter)
	}
	// The injected faults fire only in a slot's first incarnation: a
	// substitute must not inherit the suicide it is substituting for.
	if js.incarnation == 0 && (inj.killAfter > 0 || inj.dieAfter > 0) {
		ptr = inj
	}
	if conf.Faults.Active() {
		ptr = dist.NewFaultTransport(ptr, conf.Faults)
	}
	job.tr, job.started = ptr, true
	cfg := conf.distConfig()
	go func() {
		defer close(job.done)
		var gs []dist.TupleGroup
		var err error
		if len(js.specs) == 0 {
			gs, err = dist.RunReduceNode(id, job.sink.cols[0], js.workers, ptr, cfg, &job.mem.node)
		} else {
			gs, err = dist.RunGroupByNode(id, job.sink.keys, job.sink.cols, js.workers, js.specs, ptr, cfg, &job.mem.node)
		}
		if errors.Is(err, dist.ErrClosed) {
			return // deliberate teardown (job done, shutdown, next job)
		}
		if err != nil {
			reportErr(c, id, ctrlSeqJob(js.jobIdx), err)
			return
		}
		if id == 0 {
			_ = c.send(dist.Frame{
				Kind: dist.KindResult, From: id, Seq: ctrlSeqJob(js.jobIdx),
				Payload: dist.EncodeTupleGroups(gs, max(len(js.specs), 1)),
			})
		}
	}()
}
