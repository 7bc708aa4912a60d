package proc

import (
	"bufio"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/tpch"
)

// The worker side of the elastic cluster runtime. A worker process is
// either spawned by a supervisor (-control, -id, -conf) or started by
// an operator against an advertised control address (-join), and then:
//
//  1. dials the control address and completes the KindHello handshake
//     (joiners first announce themselves config-less, receive the
//     cluster config in KindConf, and answer with the full digested
//     hello on the same connection),
//  2. waits for KindJob: the operation, its shape, and this node's
//     input — raw rows, or a declarative source the worker
//     materializes locally and slices by its node id,
//  3. binds a fresh data-plane listener per job, announces it with
//     KindReady, and on KindPeers runs its node's role of the
//     aggregation protocol over real sockets — the root also ships the
//     finalized result back as KindResult,
//  4. on a later KindPeers epoch re-points its peer table at a
//     replacement's fresh listener (the reconnect-safe transport
//     re-dials; per-chunk resends recover anything in flight),
//  5. tears the job's data plane down at KindJobDone and waits for the
//     next job, until KindShutdown.
//
// A worker that loses the supervisor connection does not exit: it
// tears down the current job, redials with capped exponential backoff
// + jitter, and re-attaches through the full digest handshake (a
// returning-member hello carrying its id and last-known fencing
// epoch) — which is what lets a journaled supervisor be kill -9'd and
// restarted without restarting its workers.

// workerEnv marks a process as a spawned cluster worker when the
// supervisor re-executes the current binary (the default when no
// explicit reproworker binary is configured). MaybeWorkerMain checks
// it; cmd/reproworker needs no marker.
const workerEnv = "REPRO_WORKER_PROCESS"

// Test hooks: REPROWORKER_HELLO_VERSION and REPROWORKER_HELLO_LEVELS
// override the corresponding KindHello fields, and
// REPROWORKER_TAMPER_DIGEST=1 flips the run-config digest — so the
// handshake rejection paths are exercised through the real spawn, dial,
// and reject machinery rather than a mocked frame. They are honored
// only in re-exec-spawned workers (workerEnv set, the mode tests use):
// the standalone reproworker binary must announce what it actually
// speaks, and a hook variable stray in an operator's shell must not
// mysteriously fail (or worse, falsify) production handshakes.
const (
	envHelloVersion = "REPROWORKER_HELLO_VERSION"
	envHelloLevels  = "REPROWORKER_HELLO_LEVELS"
	envTamperDigest = "REPROWORKER_TAMPER_DIGEST"
)

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
// cluster through re-execution — tests, reprobench, anything calling
// the facade's WithProcessCluster without a separate reproworker
// binary — must call it at the top of main (or TestMain), before flag
// parsing.
func MaybeWorkerMain() {
	if os.Getenv(workerEnv) == "" {
		return
	}
	os.Exit(WorkerMain(os.Args[1:]))
}

const workerUsage = `usage: reproworker -control <addr> -id <n> -conf <hex> [-epoch <n>]
       reproworker -join <addr> [-join-timeout <dur>] [-advertise <host[:port]>]
                   [-metrics-addr <addr>]

A reproducible-aggregation cluster worker (see internal/dist/proc).

Supervisor-spawned mode (-control/-id/-conf/-epoch) is what a
proc.Cluster uses for its own workers; the flags come from the
supervisor and are not meant to be crafted by hand.

Join mode (-join) connects to the control address an operator got from
Cluster.Addr(), retrying an unreachable address with capped
exponential backoff + jitter until -join-timeout (default 30s)
elapses. The worker announces its build, receives the cluster
configuration, and completes the digested handshake; the supervisor
admits it into a free node slot, parks it as a standby for mid-run
replacement, or rejects it.

-advertise rewrites the data-plane address this worker announces to
the cluster's peer table, for machines where the bound address is not
what peers should dial: a bare host keeps the per-job bound port
(multi-NIC), host:port additionally binds that fixed data-plane port
(stable NAT or port-forward mappings). Default: the bound address.

A worker that loses its supervisor connection does not exit: it parks,
redials with the same backoff, and re-attaches through the full digest
handshake — so a journaled supervisor (ClusterSpec.Journal) can crash
and restart without its workers being restarted.

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
	control := fs.String("control", "", "supervisor control address (host:port)")
	id := fs.Int("id", -1, "this worker's cluster node id")
	confHex := fs.String("conf", "", "hex-encoded cluster config (from the supervisor)")
	epoch := fs.Uint64("epoch", 0, "supervisor fencing epoch (from the supervisor)")
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
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "reproworker: %v\n", err)
		if errors.Is(err, dist.ErrHandshake) || errors.Is(err, errJoinExhausted) {
			return ExitHandshake
		}
		return ExitFailure
	}
	if *advertise != "" && strings.Contains(*advertise, ":") {
		if _, p, err := net.SplitHostPort(*advertise); err != nil || p == "" {
			fmt.Fprintln(os.Stderr, "reproworker: -advertise must be a host or host:port (bracket IPv6 hosts)")
			return ExitUsage
		}
	}
	if *join != "" {
		if *control != "" || *confHex != "" || *id != -1 || *epoch != 0 {
			fmt.Fprintln(os.Stderr, "reproworker: -join excludes -control, -id, -conf, and -epoch (the cluster assigns them)")
			return ExitUsage
		}
		if *joinTimeout <= 0 {
			fmt.Fprintln(os.Stderr, "reproworker: -join-timeout must be positive")
			return ExitUsage
		}
		if err := runJoiner(*join, *advertise, *joinTimeout); err != nil {
			return fail(err)
		}
		return ExitOK
	}
	if *control == "" || *confHex == "" {
		fmt.Fprintln(os.Stderr, "reproworker: -control and -conf are required (or -join to join a cluster); see -help")
		return ExitUsage
	}
	raw, err := hex.DecodeString(*confHex)
	if err != nil {
		return fail(fmt.Errorf("decoding -conf: %w", err))
	}
	conf, err := decodeConf(raw)
	if err != nil {
		return fail(err)
	}
	if *id < 0 || *id >= conf.N {
		return fail(fmt.Errorf("node id %d outside the %d-node cluster", *id, conf.N))
	}
	if err := runWorker(*control, *advertise, *id, conf, raw, *epoch); err != nil {
		return fail(err)
	}
	return ExitOK
}

// helloFields builds this worker's handshake fields, honoring the test
// hooks that force mismatches.
func helloFields(raw []byte) (version, levels byte, digest uint64) {
	version, levels, digest = dist.FrameVersion, byte(core.DefaultLevels), confDigest(raw)
	if os.Getenv(workerEnv) == "" {
		return version, levels, digest // standalone binary: no hooks
	}
	if v := os.Getenv(envHelloVersion); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			version = byte(n)
		}
	}
	if v := os.Getenv(envHelloLevels); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			levels = byte(n)
		}
	}
	if os.Getenv(envTamperDigest) == "1" {
		digest ^= 0xDEADBEEF
	}
	return version, levels, digest
}

// ctlWriter serializes control-plane sends: the main loop, the
// heartbeat ticker, and a job's protocol goroutine all write through
// it.
type ctlWriter struct {
	mu       sync.Mutex
	conn     net.Conn
	bw       *bufio.Writer
	maxChunk int
}

func (w *ctlWriter) send(f dist.Frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, ch := range dist.SplitFrame(f, w.maxChunk) {
		if err := dist.WriteFrame(w.bw, ch); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

// Control-connection tuning. Dial attempts back off exponentially from
// backoffBase to backoffCap with ±25% jitter; a detached worker keeps
// redialing for at most reattachWindow before giving up.
const (
	sockBufSize = 64 << 10
	dialTimeout = 5 * time.Second

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
// session layer answers with backoff and re-attach instead of exiting.
var errCtlLost = errors.New("control connection lost")

// errJoinExhausted means the join retry loop ran its whole window
// without ever reaching the control address. WorkerMain maps it to
// ExitHandshake: like a rejection, retrying the same line is pointless.
var errJoinExhausted = errors.New("join window exhausted")

// dialRetry dials addr with the capped-backoff retry loop, bounded by
// window.
func dialRetry(addr string, window time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(window)
	var lastErr error
	for attempt := 0; ; attempt++ {
		cc, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			return cc, nil
		}
		lastErr = err
		d := backoffDelay(attempt)
		if time.Now().Add(d).After(deadline) {
			return nil, fmt.Errorf("%w: %s unreachable for %v: %v", errJoinExhausted, addr, window, lastErr)
		}
		time.Sleep(d)
	}
}

// workerSession is a worker's durable identity across control
// connections: which supervisor it belongs to, the slot and config it
// was admitted with, and the last fencing epoch it attached at.
type workerSession struct {
	control   string // supervisor control address
	advertise string // operator's -advertise override, "" for bound
	id        int
	conf      clusterConf
	raw       []byte
	epoch     uint64

	// Telemetry shipped in heartbeat pings (spec version 5). lastRTT is
	// the round trip the worker measured from the supervisor's last pong
	// echo; jobsRun counts jobs this worker accepted. Atomics: the
	// heartbeat ticker goroutine reads them while the main loop writes.
	lastRTT atomic.Int64
	jobsRun atomic.Uint64
}

// runWorker is the supervisor-spawned path: dial, full hello, serve.
func runWorker(control, advertise string, id int, conf clusterConf, raw []byte, epoch uint64) error {
	cc, err := net.DialTimeout("tcp", control, dialTimeout)
	if err != nil {
		return fmt.Errorf("dialing supervisor %s: %w", control, err)
	}
	s := &workerSession{control: control, advertise: advertise, id: id, conf: conf, raw: raw, epoch: epoch}
	w := &ctlWriter{conn: cc, bw: bufio.NewWriterSize(cc, sockBufSize), maxChunk: conf.MaxChunkPayload}
	if err := sendFullHello(w, id, raw, epoch); err != nil {
		return err
	}
	return s.serve(cc, bufio.NewReaderSize(cc, sockBufSize), dist.NewReassembler(0), w)
}

// runJoiner is the operator-started path: dial (with retries), then
// await admission. A connection lost while parked or mid-handshake is
// redialed with the re-attach backoff — the supervisor may be
// restarting — so a standby survives a supervisor crash too.
func runJoiner(control, advertise string, window time.Duration) error {
	cc, err := dialRetry(control, window)
	if err != nil {
		return err
	}
	for {
		err := awaitAdmission(cc, control, advertise)
		cc.Close()
		if !errors.Is(err, errCtlLost) {
			return err
		}
		fmt.Fprintf(os.Stderr, "reproworker: %v; redialing %s\n", err, control)
		if cc, err = dialRetry(control, reattachWindow); err != nil {
			return err
		}
	}
}

// awaitAdmission announces the build with a config-less join hello,
// receives the assigned node id, fencing epoch, and cluster config in
// KindConf, then completes the full handshake and serves. The
// supervisor may park the worker as a standby first — then KindConf
// simply arrives later, when a node slot frees up.
func awaitAdmission(cc net.Conn, control, advertise string) error {
	version, levels, _ := helloFields(nil)
	// No cluster config yet: chunk at the codec default (SplitFrame
	// maps 0 to it) until KindConf establishes the agreed size.
	w := &ctlWriter{conn: cc, bw: bufio.NewWriterSize(cc, sockBufSize), maxChunk: 0}
	err := w.send(dist.Frame{
		Kind: dist.KindHello, From: -1, Seq: ctrlSeqHello,
		Payload: encodeHello(hello{version: version, levels: levels, specver: specVersion, flags: helloJoin}),
	})
	if err != nil {
		return fmt.Errorf("%w: sending join hello: %v", errCtlLost, err)
	}

	br := bufio.NewReaderSize(cc, sockBufSize)
	asm := dist.NewReassembler(0)
	for {
		msg, err := readCtl(br, asm)
		if err != nil {
			return fmt.Errorf("%w: awaiting admission: %v", errCtlLost, err)
		}
		switch msg.Kind {
		case dist.KindError:
			return dist.DecodeErr(-1, msg.Payload)
		case dist.KindShutdown:
			return nil // the cluster closed while this worker was parked
		case dist.KindConf:
			id, epoch, raw, err := decodeConfFrame(msg.Payload)
			if err != nil {
				return err
			}
			conf, err := decodeConf(raw)
			if err != nil {
				return err
			}
			if id < 0 || id >= conf.N {
				return fmt.Errorf("assigned node id %d outside the %d-node cluster", id, conf.N)
			}
			s := &workerSession{control: control, advertise: advertise, id: id, conf: conf, raw: raw, epoch: epoch}
			w.maxChunk = conf.MaxChunkPayload
			if err := sendFullHello(w, id, raw, epoch); err != nil {
				return fmt.Errorf("%w: %v", errCtlLost, err)
			}
			// The same reader carries on: nothing buffered is lost
			// across the phase change.
			return s.serve(cc, br, asm, w)
		}
	}
}

// serve runs worker loops over the session's control connection,
// re-attaching with backoff whenever the connection is lost, until
// shutdown, a typed rejection, or the re-attach window runs out.
func (s *workerSession) serve(cc net.Conn, br *bufio.Reader, asm *dist.Reassembler, w *ctlWriter) error {
	for {
		err := workerLoopWith(cc, br, asm, w, s)
		cc.Close()
		if !errors.Is(err, errCtlLost) {
			return err
		}
		fmt.Fprintf(os.Stderr, "reproworker: %v; re-attaching to %s\n", err, s.control)
		var shutdown bool
		cc, br, asm, w, shutdown, err = s.reattach()
		if err != nil {
			return err
		}
		if shutdown {
			return nil // the cluster closed while this worker was detached
		}
	}
}

// reattach redials the supervisor with capped exponential backoff +
// jitter and runs the returning-member handshake, for at most
// reattachWindow. A typed rejection (stale epoch, digest mismatch,
// cluster full) ends the retries: the verdict won't change.
func (s *workerSession) reattach() (net.Conn, *bufio.Reader, *dist.Reassembler, *ctlWriter, bool, error) {
	deadline := time.Now().Add(reattachWindow)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			d := backoffDelay(attempt - 1)
			if time.Now().Add(d).After(deadline) {
				return nil, nil, nil, nil, false, fmt.Errorf("supervisor %s unreachable for %v: %v", s.control, reattachWindow, lastErr)
			}
			time.Sleep(d)
		}
		cc, err := net.DialTimeout("tcp", s.control, dialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		br, asm, w, shutdown, err := s.rejoin(cc)
		if err == nil {
			return cc, br, asm, w, shutdown, nil
		}
		cc.Close()
		if !errors.Is(err, errCtlLost) {
			return nil, nil, nil, nil, false, err
		}
		lastErr = err
	}
}

// rejoin runs the returning-member handshake on a fresh connection: a
// join hello carrying this worker's id, digest, and last-known epoch,
// then — once the supervisor hands a slot back in KindConf — the full
// hello at the supervisor's (possibly bumped) epoch. A restarted
// supervisor recognizes the id from its journal and re-admits at the
// recorded slot; if a replacement took the slot meanwhile, whatever
// slot the cluster assigns is adopted. The supervisor may also park
// the worker as a standby first, so the KindConf wait is unbounded.
func (s *workerSession) rejoin(cc net.Conn) (*bufio.Reader, *dist.Reassembler, *ctlWriter, bool, error) {
	version, levels, digest := helloFields(s.raw)
	w := &ctlWriter{conn: cc, bw: bufio.NewWriterSize(cc, sockBufSize), maxChunk: s.conf.MaxChunkPayload}
	err := w.send(dist.Frame{
		Kind: dist.KindHello, From: s.id, Seq: ctrlSeqRejoin,
		Payload: encodeHello(hello{
			version: version, levels: levels, specver: specVersion,
			flags: helloJoin | helloHasDigest, digest: digest, epoch: s.epoch,
		}),
	})
	if err != nil {
		return nil, nil, nil, false, fmt.Errorf("%w: sending re-attach hello: %v", errCtlLost, err)
	}
	br := bufio.NewReaderSize(cc, sockBufSize)
	asm := dist.NewReassembler(0)
	for {
		msg, err := readCtl(br, asm)
		if err != nil {
			return nil, nil, nil, false, fmt.Errorf("%w: awaiting re-admission: %v", errCtlLost, err)
		}
		switch msg.Kind {
		case dist.KindError:
			return nil, nil, nil, false, dist.DecodeErr(-1, msg.Payload)
		case dist.KindShutdown:
			return nil, nil, nil, true, nil
		case dist.KindConf:
			id, epoch, raw, err := decodeConfFrame(msg.Payload)
			if err != nil {
				return nil, nil, nil, false, err
			}
			if epoch < s.epoch {
				// The fence, worker side: a supervisor from an older
				// incarnation must not win this worker back.
				return nil, nil, nil, false, fmt.Errorf("%w: supervisor is at stale epoch %d, this worker has seen %d",
					dist.ErrHandshake, epoch, s.epoch)
			}
			conf, err := decodeConf(raw)
			if err != nil {
				return nil, nil, nil, false, err
			}
			if id < 0 || id >= conf.N {
				return nil, nil, nil, false, fmt.Errorf("assigned node id %d outside the %d-node cluster", id, conf.N)
			}
			s.id, s.epoch, s.conf, s.raw = id, epoch, conf, raw
			w.maxChunk = conf.MaxChunkPayload
			if err := sendFullHello(w, s.id, s.raw, s.epoch); err != nil {
				return nil, nil, nil, false, fmt.Errorf("%w: %v", errCtlLost, err)
			}
			return br, asm, w, false, nil
		}
	}
}

func sendFullHello(w *ctlWriter, id int, raw []byte, epoch uint64) error {
	version, levels, digest := helloFields(raw)
	err := w.send(dist.Frame{
		Kind: dist.KindHello, From: id, Seq: ctrlSeqHello,
		Payload: encodeHello(hello{
			version: version, levels: levels, specver: specVersion,
			flags: helloHasDigest, digest: digest, epoch: epoch,
		}),
	})
	if err != nil {
		return fmt.Errorf("sending hello: %w", err)
	}
	return nil
}

// readCtl reads one complete (reassembled) control message.
func readCtl(br *bufio.Reader, asm *dist.Reassembler) (dist.Frame, error) {
	for {
		f, err := dist.ReadFrame(br)
		if err != nil {
			return dist.Frame{}, err
		}
		if f.Kind == dist.KindPing {
			// Pong echoes reuse one (from, seq) stream forever; the
			// reassembler would swallow every echo after the first as a
			// completed-stream duplicate. They are single-frame by
			// construction (mirrors the supervisor's readConn bypass).
			return f, nil
		}
		msg, complete, _, aerr := asm.Accept(f)
		if aerr != nil {
			return dist.Frame{}, aerr
		}
		if complete {
			return msg, nil
		}
	}
}

// workerJob is one job's worker-side state.
type workerJob struct {
	spec    jobSpec
	keys    []uint32
	cols    [][]float64
	ep      *dist.Endpoint // this node's data plane, bound per job
	started bool
	done    chan struct{} // closed when the protocol goroutine finishes
}

// stop tears the job's data plane down and waits for its protocol
// goroutine: the endpoint close makes the goroutine's next Recv or
// Send fail with ErrClosed, which it swallows as a deliberate abort.
func (j *workerJob) stop() {
	j.ep.Close()
	if j.started {
		<-j.done
	}
}

// workerLoopWith serves jobs until shutdown. It owns the control
// connection's read side; all writes go through w. A lost connection
// is returned wrapped in errCtlLost, which the session layer answers
// with re-attach instead of exit.
func workerLoopWith(cc net.Conn, br *bufio.Reader, asm *dist.Reassembler, w *ctlWriter, s *workerSession) error {
	id, conf := s.id, s.conf
	if conf.Heartbeat > 0 {
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
					// wire counters, jobs run, and the RTT measured from the
					// supervisor's previous pong echo.
					_ = w.send(dist.Frame{
						Kind: dist.KindPing, From: id, Seq: ctrlSeqPing,
						Payload: encodePingStats(pingStats{
							sentNanos: time.Now().UnixNano(),
							rttNanos:  s.lastRTT.Load(),
							jobsRun:   s.jobsRun.Load(),
							wire:      dist.ReadWireStats(),
						}),
					})
				case <-stop:
					return
				}
			}
		}()
	}

	var cur *workerJob
	defer func() {
		if cur != nil {
			cur.stop()
		}
	}()
	for {
		msg, err := readCtl(br, asm)
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
				cur.stop()
				cur = nil
			}
		case dist.KindJob:
			if cur != nil {
				// The control stream is ordered, so a new job means the
				// old one is over for the supervisor, however it ended.
				cur.stop()
				cur = nil
			}
			js, err := decodeJobSpec(msg.Payload)
			if err != nil {
				// The payload still carries which job it was in its
				// control seq; answer there so the supervisor can fail
				// the right job instead of hitting a timeout.
				jobIdx := int((msg.Seq - ctrlSeqJobBase) / ctrlSeqJobStride)
				reportErr(w, id, jobIdx, err)
				continue
			}
			job, announce, err := prepareJob(cc, id, conf, js, s.advertise)
			if err != nil {
				reportErr(w, id, js.jobIdx, err)
				continue
			}
			cur = job
			s.jobsRun.Add(1)
			err = w.send(dist.Frame{
				Kind: dist.KindReady, From: id, Seq: ctrlSeqReady(js.jobIdx),
				Payload: encodeReady(js.jobIdx, announce),
			})
			if err != nil {
				return fmt.Errorf("%w: %v", errCtlLost, err)
			}
		case dist.KindPeers:
			jobIdx, _, addrs, err := decodePeers(msg.Payload)
			if err != nil || cur == nil || jobIdx != cur.spec.jobIdx || len(addrs) != conf.N {
				continue
			}
			if !cur.started {
				startJob(cur, w, id, conf, addrs)
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
// job's result stream. Send failures are ignored: a dead control
// connection surfaces in the read loop.
func reportErr(w *ctlWriter, id, jobIdx int, err error) {
	_ = w.send(dist.Frame{
		Kind: dist.KindError, From: id, Seq: ctrlSeqResult(jobIdx),
		Payload: dist.EncodeErr(err),
	})
}

// prepareJob materializes the job's input for this node and binds the
// job's data-plane endpoint on the control connection's local
// interface (loopback for a local cluster, the routable interface the
// worker joined over for a remote one). It returns the address to
// announce to the peer table: the bound address by default, rewritten
// by -advertise for multi-NIC or NAT'd machines — a bare host keeps
// the bound port, host:port also pins the listener to that port.
func prepareJob(cc net.Conn, id int, conf clusterConf, js jobSpec, advertise string) (*workerJob, string, error) {
	job := &workerJob{spec: js, done: make(chan struct{})}
	switch js.source {
	case srcRaw:
		job.keys, job.cols = js.keys, js.cols
	case srcSynth:
		keys, cols, err := js.synth.Materialize()
		if err != nil {
			return nil, "", fmt.Errorf("materializing synthetic source: %w", err)
		}
		job.keys, job.cols = sliceRows(keys, cols, conf.N, id)
	case srcTPCHQ1:
		keys, cols, err := tpch.Q1Input(tpch.GenLineitemRows(js.rows, js.seed))
		if err != nil {
			return nil, "", fmt.Errorf("materializing tpch source: %w", err)
		}
		job.keys, job.cols = sliceRows(keys, cols, conf.N, id)
	}
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

// sliceRows keeps this node's round-robin slice (row i belongs to node
// i mod n) of a locally materialized dataset. Every node materializes
// the same rows from the same seeds, so the slices partition the
// dataset exactly; order-invariant aggregation makes the partitioning
// invisible in the result bits.
func sliceRows(keys []uint32, cols [][]float64, n, id int) ([]uint32, [][]float64) {
	rows := 0
	if len(cols) > 0 {
		rows = len(cols[0])
	}
	cnt := rows / n
	if id < rows%n {
		cnt++
	}
	var outKeys []uint32
	if keys != nil {
		outKeys = make([]uint32, 0, cnt)
		for i := id; i < len(keys); i += n {
			outKeys = append(outKeys, keys[i])
		}
	}
	outCols := make([][]float64, len(cols))
	for c, col := range cols {
		out := make([]float64, 0, cnt)
		for i := id; i < len(col); i += n {
			out = append(out, col[i])
		}
		outCols[c] = out
	}
	return outKeys, outCols
}

// injectedFaults decorates a worker's endpoint with the forced
// failures of the reconnect and replacement scenarios: just before the
// node's dieAfter-th data frame leaves, the whole process exits
// mid-stream; just before its killAfter-th, every outgoing connection
// is severed once and the frame is lost with them (the receiver's
// per-chunk re-requests recover it over fresh connections). Frames to
// the node itself never reach a socket and resend traffic must not
// re-trip a fault, so neither counts. Like dist.FaultTransport it does
// not implement BatchSender, so it sees every frame.
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
func startJob(job *workerJob, w *ctlWriter, id int, conf clusterConf, addrs []string) {
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
	job.started = true
	cfg := conf.distConfig()
	go func() {
		defer close(job.done)
		var payload []byte
		var err error
		if js.op == opReduce {
			payload, err = dist.RunReduceNode(id, job.cols[0], js.workers, js.topo, ptr, cfg)
		} else {
			var gs []dist.TupleGroup
			gs, err = dist.RunGroupByNode(id, job.keys, job.cols, js.workers, js.specs, ptr, cfg)
			if err == nil && id == 0 {
				payload = dist.EncodeTupleGroups(gs, len(js.specs))
			}
		}
		if errors.Is(err, dist.ErrClosed) {
			return // deliberate teardown (job done, shutdown, next job)
		}
		if err != nil {
			reportErr(w, id, js.jobIdx, err)
			return
		}
		if id == 0 {
			_ = w.send(dist.Frame{
				Kind: dist.KindResult, From: id, Seq: ctrlSeqResult(js.jobIdx),
				Payload: payload,
			})
		}
	}()
}
