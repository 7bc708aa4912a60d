package proc

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/sqlagg"
)

// The elastic cluster runtime: a long-lived Cluster handle that forms
// a worker set from whoever joins its control address (reproworker
// -join <addr>) — processes it started itself, processes an operator
// started, or both, all through one admission handshake; runs a
// sequence of typed Jobs over it; and survives worker death mid-run by
// admitting a substitute through that same handshake, re-shipping the
// dead worker's job spec (and re-streaming its rows from the
// caller's shards), and re-pointing the surviving peers — with a
// final result bit-identical to an undisturbed run, because the
// protocols' partial frames are deterministic and merge
// order-invariantly.
//
// The supervisor is a single event-loop goroutine that owns all
// cluster state. Connections, process exits, job submissions, and
// timers all funnel into one channel; per-connection reader goroutines,
// per-process exit watchers and per-member row shippers only post
// events. That actor shape is
// what makes mid-run membership changes safe to reason about: every
// admission, death, dispatch, and re-broadcast is a serialized step.

// ErrClusterClosed is returned by Run on a cluster that has been
// closed (or is closing underneath the call).
var ErrClusterClosed = errors.New("proc: cluster closed")

// ClusterSpec configures a Cluster. The zero value is invalid: Nodes
// is required. Every field is validated at construction with a typed
// dist.ErrConfig naming the field.
type ClusterSpec struct {
	// Nodes is the cluster size: how many workers run each job.
	Nodes int
	// Join is how many of the Nodes workers the supervisor does not
	// start itself: it starts Nodes - Join (reproworker -join Addr) and
	// leaves the rest to operators running the same line elsewhere.
	// Slots are not set aside for either kind: the first verified
	// arrival takes the lowest free slot.
	Join int
	// SpawnStandby starts this many extra local workers; whichever
	// arrivals find every slot taken park as standbys and are promoted
	// when a member dies.
	SpawnStandby int
	// MaxStandby caps how many joiners may park as standbys beyond the
	// Nodes slots (0 defaults to SpawnStandby). A joiner arriving when
	// the slots and the standby bench are both full is rejected with a
	// typed ErrHandshake.
	MaxStandby int
	// Addr is the control listen address (default "127.0.0.1:0").
	// Bind a routable address to accept joiners from other machines.
	Addr string
	// Journal, when non-empty, names a directory for the supervisor's
	// journal: one snapshot file of the control-plane state (epoch,
	// control address, job cursor, slot incarnations), replaced
	// atomically at every admission and job start, so a crashed
	// supervisor can be restarted against the same directory and
	// recover — it re-binds the journaled control address (when Addr is
	// empty), restores slot incarnations and the fencing epoch, and
	// re-admits its workers as they re-attach instead of respawning
	// them. Empty disables journaling.
	Journal string
	// JoinTimeout bounds formation and each replacement wait
	// (default 15s). A dead member's slot goes to a promoted standby or
	// the next joiner, which is re-shipped the lost job spec and rows
	// while the peers re-dial it; a job whose slot nobody fills within
	// JoinTimeout fails with ErrRecovering and the cluster stays usable.
	JoinTimeout time.Duration
	// Heartbeat is the workers' control-plane ping interval, each ping
	// carrying the worker's wire counters (default 500ms).
	Heartbeat time.Duration
	// Liveness declares a member dead after this much control-plane
	// silence (0 = connection errors only). Must leave room for at
	// least two heartbeats.
	Liveness time.Duration
	// DieNode/DieAfter inject the forced worker-death scenario: node
	// DieNode exits its process just before its DieAfter-th data-plane
	// frame, first incarnation only (a replacement must not inherit
	// the suicide). DieAfter == 0 disables.
	DieNode  int
	DieAfter int
	// Config is the data-plane protocol configuration (chunking,
	// deadlines, fault plan). Its NewTransport is ignored: workers
	// always speak real sockets.
	Config dist.Config
	// Options configures spawning (stderr, kill injection).
	Options Options
}

// Validate checks every field, returning a dist.ErrConfig that names
// the offending field.
func (s ClusterSpec) Validate() error {
	if s.Nodes < 1 {
		return fmt.Errorf("%w: cluster size must be >= 1 node (ClusterSpec.Nodes, got %d)", dist.ErrConfig, s.Nodes)
	}
	if s.Join < 0 || s.Join > s.Nodes {
		return fmt.Errorf("%w: remote-join slots must be between 0 and Nodes (ClusterSpec.Join, got %d of %d)", dist.ErrConfig, s.Join, s.Nodes)
	}
	if s.SpawnStandby < 0 {
		return fmt.Errorf("%w: spawned standby count must be >= 0 (ClusterSpec.SpawnStandby, got %d)", dist.ErrConfig, s.SpawnStandby)
	}
	if s.MaxStandby < 0 {
		return fmt.Errorf("%w: standby capacity must be >= 0 (ClusterSpec.MaxStandby, got %d)", dist.ErrConfig, s.MaxStandby)
	}
	if s.JoinTimeout < 0 {
		return fmt.Errorf("%w: join timeout must be >= 0 (ClusterSpec.JoinTimeout, got %v)", dist.ErrConfig, s.JoinTimeout)
	}
	if s.Journal != "" {
		if err := probeJournalDir(s.Journal); err != nil {
			return fmt.Errorf("%w: journal directory is not writable (ClusterSpec.Journal): %v", dist.ErrConfig, err)
		}
	}
	if s.Heartbeat < 0 {
		return fmt.Errorf("%w: heartbeat interval must be >= 0 (ClusterSpec.Heartbeat, got %v)", dist.ErrConfig, s.Heartbeat)
	}
	if s.Liveness < 0 {
		return fmt.Errorf("%w: liveness window must be >= 0 (ClusterSpec.Liveness, got %v)", dist.ErrConfig, s.Liveness)
	}
	if hb := s.withDefaults().Heartbeat; s.Liveness > 0 && 2*hb > s.Liveness {
		return fmt.Errorf("%w: a liveness window needs a heartbeat at most half as long (ClusterSpec.Heartbeat %v vs ClusterSpec.Liveness %v)", dist.ErrConfig, hb, s.Liveness)
	}
	if s.DieAfter < 0 {
		return fmt.Errorf("%w: injected-death frame count must be >= 0 (ClusterSpec.DieAfter, got %d)", dist.ErrConfig, s.DieAfter)
	}
	if s.DieAfter > 0 && (s.DieNode < 0 || s.DieNode >= s.Nodes) {
		return fmt.Errorf("%w: injected death must name a cluster node (ClusterSpec.DieNode, got %d of %d)", dist.ErrConfig, s.DieNode, s.Nodes)
	}
	if s.Options.KillConnAfter < 0 {
		return fmt.Errorf("%w: injected-kill frame count must be >= 0 (Options.KillConnAfter, got %d)", dist.ErrConfig, s.Options.KillConnAfter)
	}
	return s.Config.Validate()
}

// withDefaults resolves the defaulted fields.
func (s ClusterSpec) withDefaults() ClusterSpec {
	if s.JoinTimeout == 0 {
		s.JoinTimeout = 15 * time.Second
	}
	if s.MaxStandby == 0 {
		s.MaxStandby = s.SpawnStandby
	}
	if s.Heartbeat == 0 {
		s.Heartbeat = 500 * time.Millisecond
	}
	return s
}

// conf assembles the digested cluster-lifetime configuration.
func (s ClusterSpec) conf() clusterConf {
	conf := clusterConf{
		N:                s.Nodes,
		MaxChunkPayload:  s.Config.MaxChunkPayload,
		ReassemblyBudget: s.Config.ReassemblyBudget,
		ChildDeadline:    s.Config.ChildDeadline,
		MaxResend:        s.Config.MaxResend,
		Heartbeat:        s.Heartbeat,
		Liveness:         s.Liveness,
		KillNode:         -1,
		DieNode:          -1,
	}
	if s.Config.Faults != nil {
		conf.Faults = *s.Config.Faults
	}
	if s.Options.KillConnAfter > 0 {
		conf.KillNode = s.Options.KillConnNode
		conf.KillAfter = s.Options.KillConnAfter
	}
	if s.DieAfter > 0 {
		conf.DieNode = s.DieNode
		conf.DieAfter = s.DieAfter
	}
	return conf
}

// Source is a job's input: shards of rows, streamed to the workers
// behind the job spec. Construct with ValueShards or RowShards; the
// zero Source names no input and fails Run.
//
// The shards are read by reference — each worker's rows are encoded
// straight out of the caller's slices while the job runs, and again for
// a mid-run substitute — so they must not change until Run returns.
// A job always ships its rows' bits, never a generator for them: the
// result depends on the input multiset and nothing else, so no worker
// may be left to reproduce the input on its own machine.
type Source struct {
	keys [][]uint32
	cols [][][]float64
}

// ValueShards is a reduction input: one value slice per shard.
// Shard i goes to node i mod Nodes — reproducibility makes any dealing
// invisible in the result bits. The slices are read until Run returns.
func ValueShards(shards [][]float64) Source {
	cols := make([][][]float64, len(shards))
	for i, s := range shards {
		cols[i] = [][]float64{s}
	}
	return Source{cols: cols}
}

// RowShards is a group-by input: per-shard keys plus value
// columns (one slice per column the aggregate catalog reads), dealt to
// the nodes like ValueShards and likewise read until Run returns.
func RowShards(keys [][]uint32, cols [][][]float64) Source {
	if keys == nil {
		keys = [][]uint32{} // no shards is ErrNoShards, not the zero Source
	}
	return Source{keys: keys, cols: cols}
}

// Job is one unit of work submitted to a Cluster.
type Job struct {
	// Workers is the per-node goroutine count (0 defaults to 1).
	Workers int
	// Specs is the aggregate catalog. Empty means a plain reduction
	// (SUM of a single value column, run as a GROUP BY of one group);
	// non-empty means a group-by with one aggregate state per spec.
	Specs []sqlagg.AggSpec
	// Source is the input (required).
	Source Source
}

// EncodeJobPayload returns the control-plane dispatch bytes node id of
// an n-node cluster receives for job (and a mid-run substitute receives
// again): the KindJob payload followed by the payload of every KindRows
// chunk of its rows stream, in wire order. Exposed for measurement:
// a job dispatches every row it aggregates. The cluster never builds
// this slice — it writes each chunk as it is encoded.
func EncodeJobPayload(job Job, n, id int) ([]byte, error) {
	if n < 1 || id < 0 || id >= n {
		return nil, fmt.Errorf("%w: EncodeJobPayload needs 0 <= id < n (got id %d, n %d)", dist.ErrConfig, id, n)
	}
	rs, err := newRunState(evRun{job: job}, 0, n)
	if err != nil {
		return nil, err
	}
	b, err := rs.payloadFor(id, 0)
	if err != nil {
		return nil, err
	}
	st := rs.rowStream(id, 0)
	_, size := st.size(rowChunkBytes)
	b = slices.Grow(b, size)
	for ok := true; ok; {
		b, ok = st.next(b, rowChunkBytes)
	}
	return b, nil
}

// Result is a completed job's outcome.
type Result struct {
	// Payload is the root's canonical result encoding, the finalized
	// groups as dist.EncodeTupleGroups lays them out. A reduction's is
	// the single-SUM encoding of its lone group ⟨0, SUM⟩, or empty when
	// the input has no rows.
	Payload []byte
	// Sum is the decoded reduction result, +0 for no rows (reductions
	// only).
	Sum float64
	// Groups is the decoded Payload.
	Groups []dist.TupleGroup
	// Replacements counts workers replaced mid-run during this job.
	Replacements int
}

// ClusterStats is a point-in-time view of cluster membership and
// recovery health.
type ClusterStats struct {
	// Joined counts every admission ever (formation included).
	Joined int
	// Replaced counts slot re-admissions (substitutes for the dead).
	Replaced int
	// Standbys is the current parked-joiner count.
	Standbys int
	// Epoch is the supervisor's fencing epoch: 0 for an unjournaled
	// cluster, and bumped every time a journaled supervisor (re)opens
	// its journal — so epoch > 1 means this cluster has recovered from
	// a supervisor crash at least once.
	Epoch uint64
	// LastRecovery is when the supervisor started from a journal a
	// previous incarnation left behind (zero if it did not).
	LastRecovery time.Time
	// Jobs counts jobs dispatched to the cluster.
	Jobs int
	// Heartbeats counts stat-carrying pings received from workers.
	Heartbeats uint64
	// HeartbeatRTT is the most recent worker-measured heartbeat round
	// trip (zero until a worker has completed a ping/pong cycle). The
	// worker measures it against its own clock from the supervisor's
	// echo, so it is immune to clock skew between the machines.
	HeartbeatRTT time.Duration
	// Events is the cluster event log's last sequence number; the log
	// itself is available from Cluster.Events.
	Events uint64
	// Worker aggregates the data-plane wire counters every worker
	// reports in its heartbeat pings (deltas merged supervisor-side, so
	// mid-run replacements don't double-count).
	Worker dist.WireStats
}

// Cluster is a long-lived handle on an elastic worker cluster. Form
// one with NewCluster, submit work with Run (serialized; concurrent
// calls queue), inspect membership with Stats, and always Close it.
type Cluster struct {
	spec   ClusterSpec
	conf   clusterConf
	raw    []byte
	digest uint64
	ln     net.Listener

	events chan event
	done   chan struct{}

	closeOnce sync.Once
	closeErr  error

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	jnl        *journal
	recovering atomic.Bool // started from a previous journal, membership not yet whole

	// Observability plane: the structured event log (see Events) and
	// the cluster's own metric registry, the one record of its counters
	// (see Stats and Registry). The supervisor loop writes both.
	elog *obs.EventLog
	reg  *obs.Registry
	met  clusterMetrics
}

// Connection lifecycle phases, owned by the supervisor loop.
const (
	phaseNew     = iota // accepted, no valid hello yet
	phaseStandby        // joiner parked on the standby bench
	phaseMember         // admitted cluster member: sent its config and slot
	phaseDead           // deliberately closed by the loop; ignore further events
)

// connState is one control connection's identity and loop-owned
// state. The reader goroutine and a job's row shipper only touch the
// ctlConn; everything else is mutated by the supervisor loop alone.
type connState struct {
	*ctlConn
	phase    int
	id       int
	inc      int // admission incarnation of the slot (0 = first)
	lastSeen time.Time
}

// Supervisor loop events.
type (
	evMsg struct {
		cs  *connState
		msg dist.Frame
	}
	evConnErr struct {
		cs  *connState
		err error
	}
	evExit struct {
		cmd *exec.Cmd
		err error
	}
	// evShip: a rows stream ended — whole or cut short by the job's end
	// (err nil), or on a write error.
	evShip struct {
		rs  *runState
		cs  *connState
		err error
	}
	evRun struct {
		job   Job
		reply chan runReply
	}
	evClose struct {
		reply chan error
	}
)

type event interface{}

type runReply struct {
	payload      []byte
	replacements int
	err          error
}

// NewCluster forms a cluster: binds the control listener, starts the
// local workers and standbys as joiners of it, and starts the
// supervisor loop. It does not wait for formation — Run does, bounded
// by JoinTimeout.
//
// With ClusterSpec.Journal set and a journal present, this is also the
// crash-restart recovery path: the snapshot is read, the fencing epoch
// is bumped, the journaled control address is re-bound, and one fewer
// worker is started per slot that was admitted before the crash — those orphaned worker processes are expected to
// attach again on their own, naming the slot they held (a worker that
// truly died surfaces as a replacement timeout instead).
func NewCluster(spec ClusterSpec) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	conf := spec.conf()
	raw := encodeConf(conf)

	var jnl *journal
	var rec journalSnap
	var recovering bool
	if spec.Journal != "" {
		var err error
		jnl, rec, recovering, err = openJournal(spec.Journal)
		if err != nil {
			return nil, err
		}
		if len(rec.incs) > conf.N {
			return nil, fmt.Errorf("%w: journal describes %d node slots but the spec declares %d (ClusterSpec.Journal)",
				dist.ErrConfig, len(rec.incs), conf.N)
		}
	}

	addr := spec.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
		if rec.addr != "" {
			// Re-bind where the orphaned workers are redialing.
			addr = rec.addr
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("proc: control listener: %w", err)
	}

	c := &Cluster{
		spec:   spec,
		conf:   conf,
		raw:    raw,
		digest: confDigest(raw),
		ln:     ln,
		jnl:    jnl,
		events: make(chan event, 256),
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
		elog:   obs.NewEventLog(512),
		reg:    obs.NewRegistry(),
	}
	c.met = newClusterMetrics(c.reg)
	c.met.missing.Set(int64(conf.N))
	l := &clusterLoop{
		c:        c,
		members:  make([]*connState, conf.N),
		incs:     make([]int, conf.N),
		procs:    make(map[*exec.Cmd]bool),
		prevWire: make(map[uint64]dist.WireStats),
	}
	if recovering {
		// Restore the incarnation counters and job cursor, so any job
		// that was dispatched-but-unfinished at the crash is re-run at a
		// bumped incarnation (first-incarnation fault injections do not
		// re-fire, keeping recovered bytes identical to an undisturbed
		// run), and job stream ids are never reused on a connection.
		copy(l.incs, rec.incs)
		l.nextJob = rec.nextJob
		l.everFormed = !slices.Contains(l.incs, 0)
		c.met.lastRecovery.Set(time.Now().UnixNano())
		c.recovering.Store(true)
		c.elog.Append("replay", -1, fmt.Sprintf("journal read: epoch %d, next job %d", rec.epoch, rec.nextJob))
	}
	if jnl != nil {
		// Each journal open is a new supervisor incarnation; the bumped
		// epoch fences every hello against stale counterparts.
		l.epoch = rec.epoch + 1
		if err := jnl.write(l.snapshot(), true); err != nil {
			ln.Close()
			return nil, err
		}
		c.met.epoch.Set(int64(l.epoch))
		c.elog.Append("epoch", -1, fmt.Sprintf("fencing epoch %d (journal opened)", l.epoch))
		c.met.epochBumps.Inc()
	}

	// Every local worker is started with the one line an operator would
	// type. A recovered supervisor starts none for the slots its journal
	// shows as admitted (respawning would race the orphans for them) and
	// no standbys (the previous ones redial on their own).
	spawnN := spec.Nodes - spec.Join
	if !recovering {
		spawnN += spec.SpawnStandby
	}
	for _, inc := range rec.incs {
		if inc > 0 {
			spawnN--
		}
	}
	if spawnN > 0 {
		path, reexec, err := resolveWorker()
		for i := 0; i < spawnN && err == nil; i++ {
			cmd := spawnCmd(path, reexec, spec.Options, "-join", ln.Addr().String())
			if err = cmd.Start(); err != nil {
				err = fmt.Errorf("proc: spawning worker %d (%s): %w", i, path, err)
			} else {
				l.procs[cmd] = true
			}
		}
		if err != nil {
			ln.Close()
			for cmd := range l.procs {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}
			return nil, err
		}
	}
	for cmd := range l.procs {
		go c.watchExit(cmd)
	}
	go c.acceptLoop()
	go l.run()
	return c, nil
}

// spawnCmd builds a worker process command line.
func spawnCmd(path string, reexec bool, opt Options, args ...string) *exec.Cmd {
	cmd := exec.Command(path, args...)
	cmd.Stderr = opt.logWriter()
	if reexec {
		cmd.Env = append(os.Environ(), workerEnv+"=1")
	}
	return cmd
}

// Addr is the control address workers join at (reproworker -join).
func (c *Cluster) Addr() string { return c.ln.Addr().String() }

// Nodes is the cluster size: how many workers run each job.
func (c *Cluster) Nodes() int { return c.conf.N }

// Stats reports cluster membership and recovery counters. They are
// read from the same registry Registry exposes (Events aside, which is
// the event log's last sequence number): Stats is the typed view, the
// registry the enumerable one.
func (c *Cluster) Stats() ClusterStats {
	m := &c.met
	st := ClusterStats{
		Joined:       int(m.joins.Value()),
		Replaced:     int(m.replacements.Value()),
		Standbys:     int(m.standbys.Value()),
		Epoch:        uint64(m.epoch.Value()),
		Jobs:         int(m.jobs.Value()),
		Heartbeats:   m.heartbeats.Value(),
		HeartbeatRTT: time.Duration(m.lastRTT.Value()),
		Events:       c.elog.LastSeq(),
	}
	if ns := m.lastRecovery.Value(); ns != 0 {
		st.LastRecovery = time.Unix(0, ns)
	}
	var p pingStats
	for i, f := range p.wireFields() {
		*f = m.worker[i].Value()
	}
	st.Worker = p.wire
	return st
}

// Registry exposes the cluster's private metric registry: the
// repro_proc_* series behind Stats and Ready, in scrapeable form
// (obs.Handler serves it as Prometheus text).
func (c *Cluster) Registry() *obs.Registry { return c.reg }

// Events snapshots the cluster's structured event log: admissions,
// departures, standby promotions, re-attaches, epoch bumps, journal
// recoveries, and job dispatches, each with a monotonic sequence number —
// the ordered story Stats' counters only summarize.
func (c *Cluster) Events() []obs.Event { return c.elog.Events() }

// Ready reports whether every node slot is filled — false during
// formation and during recovery windows while workers re-attach or
// replacements are admitted. Serving layers use it to shed load with a
// retryable error instead of queueing onto a degraded cluster; it
// flips back to true on its own once the last slot fills.
func (c *Cluster) Ready() bool { return c.met.missing.Value() == 0 }

// Recovering reports whether the cluster is inside a crash-recovery
// window: a previous incarnation's journal was found at startup and its
// members have not all re-attached yet. Unlike Ready it stays false during
// first-time formation and during ordinary mid-run replacement, so a
// serving layer can shed load only when the cluster is provably
// post-crash — not merely young. It latches false for good once the
// membership is whole again.
func (c *Cluster) Recovering() bool { return c.recovering.Load() }

// Run executes one job on the cluster and blocks until its result.
// Concurrent calls are serialized in submission order.
func (c *Cluster) Run(job Job) (*Result, error) {
	reply := make(chan runReply, 1)
	select {
	case c.events <- evRun{job: job, reply: reply}:
	case <-c.done:
		return nil, ErrClusterClosed
	}
	var r runReply
	select {
	case r = <-reply:
	case <-c.done:
		return nil, ErrClusterClosed
	}
	if r.err != nil {
		return nil, r.err
	}
	gs, err := dist.DecodeTupleGroups(r.payload, max(len(job.Specs), 1))
	if err != nil {
		return nil, fmt.Errorf("proc: decoding root result: %w", err)
	}
	res := &Result{Payload: r.payload, Groups: gs, Replacements: r.replacements}
	if len(job.Specs) == 0 && len(gs) > 0 {
		res.Sum = gs[0].Aggs[0]
	}
	return res, nil
}

// Close shuts the cluster down: fails any in-flight job, tells every
// worker to exit, and waits for the spawned processes (escalating to
// kill after a deadline). It returns the first unclean worker exit.
// Idempotent.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		reply := make(chan error, 1)
		select {
		case c.events <- evClose{reply: reply}:
			select {
			case c.closeErr = <-reply:
			case <-c.done:
			}
		case <-c.done:
		}
		c.ln.Close()
		c.connMu.Lock()
		for conn := range c.conns {
			conn.Close()
		}
		c.connMu.Unlock()
	})
	return c.closeErr
}

// post delivers an event to the loop, dropping it once the loop has
// exited (so readers and watchers can never wedge on a dead cluster).
func (c *Cluster) post(e event) {
	select {
	case c.events <- e:
	case <-c.done:
	}
}

func (c *Cluster) watchExit(cmd *exec.Cmd) {
	c.post(evExit{cmd: cmd, err: cmd.Wait()})
}

// acceptLoop admits control connections for the cluster's lifetime —
// formation and later joiners use the same door.
func (c *Cluster) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.connMu.Lock()
		c.conns[conn] = struct{}{}
		c.connMu.Unlock()
		// A connection that never completes a handshake dies at this
		// deadline; admission clears it.
		conn.SetReadDeadline(time.Now().Add(c.spec.JoinTimeout))
		cs := &connState{ctlConn: newCtlConn(conn, c.conf.MaxChunkPayload), phase: phaseNew, id: -1}
		go c.readConn(cs)
	}
}

// readConn is one connection's reader: every control message is
// posted to the loop. One reader lives for the connection's whole life,
// so a joiner's buffered bytes are never lost across a phase change.
func (c *Cluster) readConn(cs *connState) {
	defer func() {
		c.connMu.Lock()
		delete(c.conns, cs.conn)
		c.connMu.Unlock()
	}()
	for {
		msg, err := cs.read()
		if err != nil {
			c.post(evConnErr{cs: cs, err: err})
			return
		}
		c.post(evMsg{cs: cs, msg: msg})
	}
}

// runState is the in-flight job's supervisor-side state. The embedded
// jobSpec is the job as every member is told it, bar the incarnation
// and the row count, which payloadFor fills in per member.
type runState struct {
	jobSpec
	reply chan runReply
	src   Source

	addrs        []string
	ready        []bool
	nready       int
	epoch        int
	replacements int

	// Row shippers read src's shards in place, so the reply, which hands
	// the shards back to the caller, waits for the last of them: over
	// stops them at the next chunk, shipping counts the ones still
	// running, out parks the reply meanwhile.
	over     atomic.Bool
	shipping int
	out      *runReply
}

// newRunState validates a job against the cluster shape.
func newRunState(e evRun, jobIdx, n int) (*runState, error) {
	job := e.job
	rs := &runState{
		jobSpec: jobSpec{
			jobIdx: jobIdx, workers: job.Workers, specs: job.Specs,
		},
		reply: e.reply,
		src:   job.Source,
		addrs: make([]string, n),
		ready: make([]bool, n),
	}
	if rs.workers == 0 {
		rs.workers = 1
	}
	if rs.workers < 0 {
		return nil, fmt.Errorf("%w (got %d)", dist.ErrWorkers, rs.workers)
	}
	if job.Source.keys == nil && job.Source.cols == nil {
		return nil, fmt.Errorf("%w: job needs an input source (Job.Source)", dist.ErrConfig)
	}
	return rs, rs.validateShards()
}

// validateShards checks the shards against the job and settles how many
// of their columns are shipped; shard i is later streamed to node
// i mod n from where it lies.
func (rs *runState) validateShards() error {
	src := rs.src
	if len(rs.specs) == 0 {
		if len(src.cols) == 0 {
			return dist.ErrNoShards
		}
		for i, c := range src.cols {
			if len(c) != 1 {
				return fmt.Errorf("%w: reduction shard %d carries %d columns, want 1", dist.ErrShardMismatch, i, len(c))
			}
		}
		rs.src.keys, rs.ncols = nil, 1 // a reduction ships no keys, whatever the source carries
		return nil
	}
	if len(src.keys) == 0 {
		return dist.ErrNoShards
	}
	if err := dist.ValidateShardColumns(src.keys, src.cols, rs.specs); err != nil {
		return err
	}
	// Ship exactly the columns the catalog reads; columns past the
	// highest bound one are dead weight on the wire.
	for _, s := range rs.specs {
		rs.ncols = max(rs.ncols, s.Col+1)
	}
	return nil
}

// rowStream opens the rows stream of node id at the given incarnation.
func (rs *runState) rowStream(id, inc int) *rowStream {
	return newRowStream(&rs.src, rs.ncols, len(rs.addrs), id, rs.jobIdx, inc)
}

// payloadFor encodes node id's job spec at the given incarnation.
func (rs *runState) payloadFor(id, inc int) ([]byte, error) {
	js := rs.jobSpec
	js.incarnation = inc
	js.rows = rs.rowStream(id, inc).rows
	return encodeJobSpec(js)
}

// clusterLoop is the supervisor actor: all fields are owned by run()'s
// goroutine.
type clusterLoop struct {
	c *Cluster

	epoch    uint64                    // supervisor fencing epoch (0 = unjournaled)
	members  []*connState              // admitted, by node id
	incs     []int                     // next admission incarnation per slot
	procs    map[*exec.Cmd]bool        // live processes this supervisor started, for Close to reap
	standbys []*connState              // parked joiners, promotion order
	prevWire map[uint64]dist.WireStats // last ping-reported wire counters of every worker process, by nonce

	everFormed bool  // all slots were filled at least once
	broken     error // fatal formation error: the cluster cannot run

	closing    bool
	closeReply chan error
	closeErr   error

	cur      *runState
	pendq    []evRun
	nextJob  int
	draining int // finished jobs whose reply waits for their row shippers

	waitT *time.Timer // the formation/replacement or shutdown deadline
}

func (l *clusterLoop) run() {
	defer close(l.c.done)
	l.waitT = time.NewTimer(time.Hour)
	l.waitT.Stop()
	var tickC <-chan time.Time
	if l.c.spec.Liveness > 0 {
		t := time.NewTicker(l.c.spec.Liveness / 2)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case e := <-l.c.events:
			switch e := e.(type) {
			case evMsg:
				l.handleMsg(e)
			case evConnErr:
				l.handleConnErr(e)
			case evExit:
				l.handleExit(e)
			case evShip:
				l.handleShip(e)
			case evRun:
				l.handleRun(e)
			case evClose:
				l.handleClose(e)
			}
		case <-l.waitT.C:
			l.handleTimeout()
		case <-tickC:
			l.checkLiveness()
		}
		if l.closing && len(l.procs) == 0 && l.draining == 0 {
			l.closeReply <- l.closeErr
			return
		}
	}
}

// checkWait keeps the formation/replacement deadline armed exactly
// while a job is waiting on empty slots. Since Go 1.23 (go.mod says
// 1.24) Stop and Reset leave no stale tick in the channel.
func (l *clusterLoop) checkWait() {
	if l.closing || l.cur == nil {
		return
	}
	if l.missingCount() == 0 {
		l.waitT.Stop()
		return
	}
	l.waitT.Reset(l.c.spec.JoinTimeout)
}

func (l *clusterLoop) missingCount() int {
	n := 0
	for _, m := range l.members {
		if m == nil {
			n++
		}
	}
	return n
}

// persist replaces the supervisor journal with the loop's current state.
// A journal that stops accepting writes breaks the cluster: continuing
// would let a later recovery take a stale snapshot for the last
// consistent state.
func (l *clusterLoop) persist() {
	j := l.c.jnl
	if j == nil || j.failed {
		return
	}
	if err := j.write(l.snapshot(), false); err != nil {
		l.fatal(err)
	}
}

// snapshot is the loop's journaled state.
func (l *clusterLoop) snapshot() journalSnap {
	return journalSnap{epoch: l.epoch, nextJob: l.nextJob, addr: l.c.ln.Addr().String(), incs: l.incs}
}

// ---- admission ----

func (l *clusterLoop) handleMsg(e evMsg) {
	switch e.cs.phase {
	case phaseNew:
		if l.closing {
			l.dismiss(e.cs) // arrived at a closing cluster: told so, not hung up on
			return
		}
		l.handleFirstHello(e.cs, e.msg)
	case phaseMember:
		l.handleMemberMsg(e.cs, e.msg)
	default:
		// Parked standbys should stay silent; dead conns are history.
	}
}

// admissionFatal is the one rule for when a failed admission breaks the
// cluster instead of leaving the slot to the next arrival: a cluster
// that has never formed and advertises no join slots is still waiting
// on the workers it started itself, so a bad one must fail the run
// promptly and loudly, not limp to a join timeout. Everywhere else the
// control address is a public door and a bad knock is the knocker's
// problem.
func (l *clusterLoop) admissionFatal() bool {
	return !l.everFormed && l.c.spec.Join == 0
}

// reject answers a failed admission with a typed KindError and drops
// the connection.
func (l *clusterLoop) reject(cs *connState, err error) {
	_ = cs.send(dist.Frame{
		Kind: dist.KindError, Seq: ctrlSeqCluster, Payload: dist.EncodeErr(err),
	})
	cs.phase = phaseDead
	cs.conn.Close()
	if l.admissionFatal() {
		l.fatal(err)
	}
}

// handleFirstHello admits, parks, or rejects a connection on its first
// frame, which must be a join hello: a config-less fresh worker's, or a
// returning member's (naming the slot, config digest and epoch it held
// — often against a restarted supervisor). The cluster, not the worker,
// assigns node ids, and the worker holds whatever config KindConf sends
// it, so the build checks here and a returning member's digest are the
// whole handshake.
func (l *clusterLoop) handleFirstHello(cs *connState, msg dist.Frame) {
	if msg.Kind != dist.KindHello {
		l.reject(cs, fmt.Errorf("proc: first control frame is kind %d, want hello", msg.Kind))
		return
	}
	h, err := decodeHello(msg.Payload)
	if err == nil {
		err = verifyJoinHello(h)
	}
	if err == nil && h.epoch > l.epoch {
		// The worker has attached to a newer supervisor incarnation than
		// this one: *we* are the stale side of the fence. Refusing keeps
		// a superseded supervisor from stealing workers back.
		err = fmt.Errorf("%w: worker has seen supervisor epoch %d, this supervisor is epoch %d (stale supervisor)",
			dist.ErrHandshake, h.epoch, l.epoch)
	}
	returning := err == nil && h.returning
	if returning && h.digest != l.c.digest {
		err = fmt.Errorf("%w: worker run-config digest %016x, supervisor's is %016x — the cluster would not agree on the run",
			dist.ErrHandshake, h.digest, l.c.digest)
	}
	if err != nil {
		l.reject(cs, err)
		return
	}
	id := slices.Index(l.members, nil) // the lowest empty slot, -1 if none
	if from := msg.From; returning && from >= 0 && from < l.c.conf.N && l.members[from] == nil {
		// A journal-recovered supervisor recognizes a returning member's
		// id: hand the recorded slot back while it is still free.
		l.c.elog.Append("re-attach", from, "returning member took its recorded slot")
		id = from
	}
	switch {
	case id >= 0:
		l.admit(cs, id)
	case len(l.standbys) < l.c.spec.MaxStandby:
		cs.phase = phaseStandby
		cs.conn.SetReadDeadline(time.Time{}) // parked indefinitely
		l.standbys = append(l.standbys, cs)
		l.c.met.standbys.Set(int64(len(l.standbys)))
		l.c.elog.Append("park", -1, fmt.Sprintf("joiner parked as standby (%d on the bench)", len(l.standbys)))
	default:
		l.reject(cs, fmt.Errorf("%w: cluster is full: all %d node slots are taken and %d standbys are parked",
			dist.ErrHandshake, l.c.conf.N, len(l.standbys)))
	}
}

// fillSlot promotes the next parked standby into an empty slot; with
// the bench empty the slot stays open for a future joiner.
func (l *clusterLoop) fillSlot(id int) {
	if len(l.standbys) == 0 {
		return
	}
	sb := l.standbys[0]
	l.standbys = l.standbys[1:]
	l.c.met.standbys.Set(int64(len(l.standbys)))
	l.c.met.promotions.Inc()
	l.c.elog.Append("promote", id, "standby promoted into empty slot")
	l.admit(sb, id)
}

// admit makes a verified joiner the member of slot id: it is sent the
// cluster config and its slot in KindConf and, mid-run, the current job
// behind it on the same ordered connection. A joiner the config cannot
// reach is dropped and the slot offered to the next standby.
func (l *clusterLoop) admit(cs *connState, id int) {
	err := cs.send(dist.Frame{
		Kind: dist.KindConf, To: id, Seq: ctrlSeqCluster, Payload: encodeConfFrame(id, l.epoch, l.c.raw),
	})
	if err != nil {
		cs.phase = phaseDead
		cs.conn.Close()
		l.fillSlot(id)
		return
	}
	cs.phase = phaseMember
	cs.id = id
	cs.inc = l.incs[id]
	l.incs[id]++
	cs.lastSeen = time.Now()
	cs.conn.SetReadDeadline(time.Time{})
	l.members[id] = cs
	l.c.met.joins.Inc()
	l.c.elog.Append("join", id, fmt.Sprintf("incarnation %d admitted", cs.inc))
	l.persist()
	missing := l.missingCount()
	l.c.met.missing.Set(int64(missing))
	if missing == 0 && l.c.recovering.CompareAndSwap(true, false) {
		if ns := l.c.met.lastRecovery.Value(); ns != 0 {
			d := time.Since(time.Unix(0, ns))
			l.c.met.recoverySecs.Observe(d.Seconds())
			l.c.elog.Append("recovered", -1, fmt.Sprintf("membership whole %v after journal recovery", d.Round(time.Millisecond)))
		}
	}
	if cs.inc > 0 {
		l.c.met.replacements.Inc()
		if l.cur != nil {
			l.cur.replacements++
		}
	}
	if missing == 0 {
		l.everFormed = true
	}
	if l.cur != nil {
		l.shipJob(cs)
	}
	l.checkWait()
}

// ---- death ----

func (l *clusterLoop) handleConnErr(e evConnErr) {
	cs := e.cs
	switch cs.phase {
	case phaseMember:
		l.memberGone(cs, fmt.Errorf("proc: worker %d control connection lost: %w", cs.id, e.err))
	case phaseStandby:
		cs.phase = phaseDead
		cs.conn.Close()
		for i, sb := range l.standbys {
			if sb == cs {
				l.standbys = append(l.standbys[:i], l.standbys[i+1:]...)
				break
			}
		}
		l.c.met.standbys.Set(int64(len(l.standbys)))
	case phaseNew:
		cs.phase = phaseDead
		cs.conn.Close()
		if l.admissionFatal() {
			l.fatal(fmt.Errorf("proc: reading handshake: %w", e.err))
		}
	}
}

// handleExit reaps a process this supervisor started. A member's death
// is not learned here — its control connection (or the liveness window)
// says so first, whoever started it; an exit matters only while the
// cluster is still forming, when it may be the last worker there will
// ever be.
func (l *clusterLoop) handleExit(e evExit) {
	if !l.procs[e.cmd] {
		return
	}
	delete(l.procs, e.cmd)
	switch {
	case l.closing:
		if e.err != nil && l.closeErr == nil {
			l.closeErr = fmt.Errorf("proc: a worker exited uncleanly after shutdown: %w", e.err)
		}
	case l.admissionFatal():
		l.fatal(fmt.Errorf("proc: a worker exited during join: %w", exitErr(e.err)))
	case !l.everFormed:
		// Not fatal (a joiner can still fill the slot), but not silent
		// either: an operator watching a cluster that never forms needs
		// to see its spawned workers dying.
		fmt.Fprintf(l.c.spec.Options.logWriter(), "proc: a worker exited during join: %v\n", exitErr(e.err))
	}
}

// memberGone removes a dead member and offers its slot to the next
// parked standby, else to the next joiner. The current job waits for
// the substitute; if none arrives within JoinTimeout the job fails with
// ErrRecovering (handleTimeout) and the slot stays open for later.
func (l *clusterLoop) memberGone(m *connState, cause error) {
	if l.members[m.id] != m {
		return // stale: the slot already moved on
	}
	m.phase = phaseDead
	m.conn.Close()
	l.members[m.id] = nil
	l.c.met.departs.Inc()
	l.c.elog.Append("depart", m.id, cause.Error())
	l.c.met.missing.Set(int64(l.missingCount()))
	if l.cur != nil && l.cur.ready[m.id] {
		l.cur.ready[m.id] = false
		l.cur.addrs[m.id] = ""
		l.cur.nready--
	}
	l.fillSlot(m.id)
	l.checkWait()
}

// fatal breaks the cluster: the current and all queued jobs fail with
// err, and every future Run fails the same way.
func (l *clusterLoop) fatal(err error) {
	if l.broken == nil {
		l.broken = err
	}
	l.failJob(err)
	l.drainPendq()
}

// ---- jobs ----

func (l *clusterLoop) handleRun(e evRun) {
	if l.closing {
		e.reply <- runReply{err: ErrClusterClosed}
		return
	}
	if l.broken != nil {
		e.reply <- runReply{err: l.broken}
		return
	}
	if l.cur != nil {
		l.pendq = append(l.pendq, e)
		return
	}
	l.startRun(e)
}

func (l *clusterLoop) startRun(e evRun) {
	rs, err := newRunState(e, l.nextJob, l.c.conf.N)
	if err != nil {
		e.reply <- runReply{err: err}
		return
	}
	l.nextJob++
	l.cur = rs
	l.c.met.jobs.Inc()
	l.c.elog.Append("job", -1, fmt.Sprintf("job %d dispatched", rs.jobIdx))
	l.persist()
	for _, m := range l.members {
		if m != nil {
			l.shipJob(m)
		}
		if l.cur == nil {
			return // a ship failure already failed the job
		}
	}
	l.checkWait()
}

// shipJob dispatches the current job to one member: the job spec from
// the loop, its rows behind it from a shipper goroutine, so all
// members are fed at once and the loop never waits on a row.
func (l *clusterLoop) shipJob(m *connState) {
	rs := l.cur
	if rs == nil {
		return
	}
	payload, err := rs.payloadFor(m.id, m.inc)
	if err != nil {
		l.failJob(err)
		return
	}
	err = m.send(dist.Frame{
		Kind: dist.KindJob, To: m.id, Seq: ctrlSeqJob(rs.jobIdx), Payload: payload,
	})
	if err != nil {
		l.memberGone(m, fmt.Errorf("proc: sending job to worker %d: %w", m.id, err))
		return
	}
	rs.shipping++
	go l.c.shipRows(rs, m, rs.rowStream(m.id, m.inc))
}

// shipRows streams one member's rows, each chunk encoded from the
// caller's shards into the one buffer and written, until the stream or
// the job is over, and reports back.
func (c *Cluster) shipRows(rs *runState, m *connState, st *rowStream) {
	f := dist.Frame{Kind: dist.KindRows, To: m.id, Seq: ctrlSeqJob(rs.jobIdx)}
	f.Chunks, _ = st.size(rowChunkBytes)
	buf := make([]byte, 0, rowChunkHdr+rowChunkBytes)
	var err error
	for err == nil && !rs.over.Load() {
		var ok bool
		if f.Payload, ok = st.next(buf, rowChunkBytes); !ok {
			break
		}
		err = m.send(f)
		f.Chunk++
	}
	c.post(evShip{rs: rs, cs: m, err: err})
}

// handleShip retires a row shipper. A write error is a lost member like
// any other; the last shipper of a finished job releases its reply.
func (l *clusterLoop) handleShip(e evShip) {
	if e.err != nil {
		l.memberGone(e.cs, fmt.Errorf("proc: streaming rows to worker %d: %w", e.cs.id, e.err))
	}
	rs := e.rs
	if rs.shipping--; rs.shipping == 0 && rs.out != nil {
		rs.reply <- *rs.out
		l.draining--
	}
}

func (l *clusterLoop) handleMemberMsg(cs *connState, msg dist.Frame) {
	if l.members[cs.id] != cs {
		return // a zombie the liveness check already replaced
	}
	cs.lastSeen = time.Now()
	switch msg.Kind {
	case dist.KindPing:
		// lastSeen is the message. The ping also carries the worker's
		// telemetry: its process's cumulative wire counters (merged as
		// deltas against that process's previous report, found by its
		// nonce) and the RTT it measured from the previous echo. The
		// payload is echoed straight back so the worker times the round
		// trip against its own clock — no cross-machine clock
		// arithmetic. Echo failures are left to the reader: a dead
		// connection surfaces there.
		p, err := decodePingStats(msg.Payload)
		if err != nil {
			l.c.elog.Append("bad-ping", cs.id, err.Error())
			return
		}
		m := &l.c.met
		m.heartbeats.Inc()
		if p.rttNanos > 0 {
			m.lastRTT.Set(p.rttNanos)
			m.heartbeatRTT.Observe(float64(p.rttNanos) / 1e9)
		}
		d := pingStats{wire: p.wire.Sub(l.prevWire[p.nonce])}
		l.prevWire[p.nonce] = p.wire
		for i, f := range d.wireFields() {
			m.worker[i].Add(*f)
		}
		_ = cs.send(dist.Frame{
			Kind: dist.KindPing, To: cs.id, Seq: ctrlSeqCluster, Payload: msg.Payload,
		})
	case dist.KindReady:
		jobIdx, addr, err := decodeReady(msg.Payload)
		if err != nil || l.cur == nil || jobIdx != l.cur.jobIdx || l.cur.ready[cs.id] {
			return
		}
		l.cur.ready[cs.id] = true
		l.cur.addrs[cs.id] = addr
		l.cur.nready++
		if l.cur.nready == l.c.conf.N {
			l.broadcastPeers()
		}
	case dist.KindResult:
		if l.cur == nil || msg.Seq != ctrlSeqJob(l.cur.jobIdx) || cs.id != 0 {
			return
		}
		l.endJob(runReply{payload: msg.Payload, replacements: l.cur.replacements})
	case dist.KindError:
		if l.cur == nil || msg.Seq != ctrlSeqJob(l.cur.jobIdx) {
			return
		}
		l.failJob(dist.DecodeErr(cs.id, msg.Payload))
	}
}

// broadcastPeers ships the complete data-plane address table to every
// member, each broadcast at a fresh epoch: the first one starts the
// job, later ones re-point the surviving peers at a substitute's fresh
// listener.
func (l *clusterLoop) broadcastPeers() {
	rs := l.cur
	payload := encodePeers(rs.jobIdx, rs.epoch, rs.addrs)
	rs.epoch++
	for _, m := range l.members {
		if m == nil {
			continue
		}
		err := m.send(dist.Frame{Kind: dist.KindPeers, To: m.id, Seq: ctrlSeqJob(rs.jobIdx), Payload: payload})
		if err != nil {
			l.memberGone(m, fmt.Errorf("proc: sending peers to worker %d: %w", m.id, err))
			if l.cur == nil {
				return
			}
		}
	}
}

func (l *clusterLoop) failJob(err error) {
	if l.cur != nil {
		l.endJob(runReply{err: err})
	}
}

// endJob retires the current job and answers its Run — at once, or
// when the last shipper still reading its shards stops (handleShip).
func (l *clusterLoop) endJob(r runReply) {
	rs := l.cur
	l.cur = nil
	l.waitT.Stop()
	rs.over.Store(true)
	l.jobDone(rs.jobIdx)
	if rs.shipping == 0 {
		rs.reply <- r
	} else {
		rs.out = &r
		l.draining++
	}
	l.nextPend()
}

// jobDone tells every member to tear down the job's data plane and
// await the next job.
func (l *clusterLoop) jobDone(jobIdx int) {
	for _, m := range l.members {
		if m == nil {
			continue
		}
		err := m.send(dist.Frame{Kind: dist.KindJobDone, To: m.id, Seq: ctrlSeqJob(jobIdx)})
		if err != nil {
			l.memberGone(m, fmt.Errorf("proc: finishing job on worker %d: %w", m.id, err))
		}
	}
}

func (l *clusterLoop) nextPend() {
	if l.broken != nil || l.closing {
		l.drainPendq()
		return
	}
	if l.cur == nil && len(l.pendq) > 0 {
		e := l.pendq[0]
		l.pendq = l.pendq[1:]
		l.startRun(e)
	}
}

func (l *clusterLoop) drainPendq() {
	err := l.broken
	if err == nil {
		err = ErrClusterClosed
	}
	for _, r := range l.pendq {
		r.reply <- runReply{err: err}
	}
	l.pendq = nil
}

// ---- timers ----

func (l *clusterLoop) handleTimeout() {
	if l.closing {
		if l.closeErr == nil && len(l.procs) > 0 {
			l.closeErr = errors.New("proc: workers did not exit within the shutdown deadline")
		}
		for cmd := range l.procs {
			_ = cmd.Process.Kill()
		}
		return
	}
	if l.cur == nil {
		return
	}
	missing := l.missingCount()
	if missing == 0 {
		return // stale deadline: the slots filled while the timer fired
	}
	if !l.everFormed {
		l.failJob(fmt.Errorf("proc: join timeout: not all of %d workers completed the handshake within %v",
			l.c.conf.N, l.c.spec.JoinTimeout))
		return
	}
	l.failJob(fmt.Errorf("%w: replacement timeout: %d node slot(s) still empty after %v",
		ErrRecovering, missing, l.c.spec.JoinTimeout))
}

// checkLiveness declares members dead after a full liveness window of
// control-plane silence; the normal death path then replaces them.
func (l *clusterLoop) checkLiveness() {
	now := time.Now()
	for _, m := range l.members {
		if m != nil && now.Sub(m.lastSeen) > l.c.spec.Liveness {
			l.c.met.livenessMisses.Inc()
			l.memberGone(m, fmt.Errorf("proc: worker %d missed the liveness window (silent for %v)",
				m.id, now.Sub(m.lastSeen).Round(time.Millisecond)))
		}
	}
}

// ---- shutdown ----

func (l *clusterLoop) handleClose(e evClose) {
	l.closing = true
	l.closeReply = e.reply
	l.failJob(ErrClusterClosed)
	l.drainPendq()
	// The listener stays open until Close returns: a worker this
	// supervisor started but that has not knocked yet is dismissed when
	// it does (handleMsg), instead of redialing a dead address until the
	// kill below.
	for _, m := range l.members {
		if m != nil {
			l.dismiss(m)
		}
	}
	for _, sb := range l.standbys {
		l.dismiss(sb)
	}
	l.waitT.Reset(10 * time.Second)
}

// dismiss tells a connected worker the cluster is closing; it exits 0.
func (l *clusterLoop) dismiss(cs *connState) {
	_ = cs.send(dist.Frame{Kind: dist.KindShutdown, To: cs.id, Seq: ctrlSeqCluster})
}
