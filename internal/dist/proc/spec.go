package proc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"repro/internal/dist"
	"repro/internal/sqlagg"
)

// Wire encodings of the control plane. The cluster config
// (clusterConf) is everything a long-lived cluster's members must
// agree on before any job exists: size, protocol knobs, fault plan,
// liveness cadence. Every member is sent it at admission (KindConf),
// and a returning member's join hello carries its digest, so a worker
// holding another config cannot rejoin. Per-job state — the aggregate
// catalog and the shape of the input — travels in the KindJob payload
// (jobSpec), which is what lets one cluster run many jobs; the rows
// themselves follow it as the KindRows chunks of one rows stream
// (rowStream → rowSink). Everything is little-endian and versioned;
// decoders validate lengths and never over-allocate on a corrupt
// prefix.

// specVersion versions the control-plane encodings — the only version
// a cluster ever speaks. It is the first byte of the conf blob, so a
// digest mismatch also covers spec-format drift between supervisor and
// worker builds — and it rides in every hello, so even a config-less
// joiner with a stale build is rejected before the conf is shipped.
// It also versions what workers ship each other: version 6 = shuffle
// frames carry physical tuples (sqlagg.TuplePlan: the spec list's
// distinct sums, one shared row count, the extrema) instead of one
// state per spec — same spec blob, different frame bytes for every
// multi-aggregate job, so a 5 and a 6 must never share a cluster.
// Version 7 = KindJob carries only the job's shape for every source
// kind, and a raw source's rows follow as a KindRows stream; a 6 would
// look for its rows inside the job payload. Version 8 = the heartbeat's
// third field is the worker process's nonce, not a job count; an 8
// supervisor would take a 7 worker's job count for its identity.
// Version 9 = the job spec lost its topology byte (every reduction runs
// the binomial tree) and its TPC-H source kind; a 9 would read an 8's
// topology byte as the worker count's first byte. Version 10 = the job
// spec lost its source-kind byte (every job ships its rows; the
// synthetic generator source is gone); a 10 would read a 9's source
// byte as the row count's first byte. Version 11 = admission is one
// hello: a joiner is a member once it is sent KindConf and answers
// with no second, digested hello; a 10 supervisor would wait for that
// hello from an 11 worker until its join timeout. Version 12 = every
// first frame is a join hello, so the hello's flags byte says only
// whether the worker is returning, and the control plane uses one
// stream id per job plus one for the cluster's lifetime; an 11 worker's
// fresh-join flag reads as an invalid flags byte, which is why the
// hello's decoder checks the spec version first. Version 13 = the job
// spec lost its operation byte (an empty aggregate catalog is the
// reduction, and a reduction's result payload is encoded tuple groups
// like a GROUP BY's); a 13 would read a 12's operation byte as the
// worker count's first byte.
const specVersion = 13

// ControlSpecVersion exposes the control-plane spec version for status
// surfaces (reproserve /stats); the unexported name stays the one the
// codecs use.
const ControlSpecVersion = specVersion

// maxJobCols bounds the column count a job payload may declare; it
// matches the aggregate catalog's spec limit, since a catalog can bind
// at most that many distinct columns.
const maxJobCols = 256

// clusterConf is the cluster-lifetime configuration every member must
// hold an identical copy of. Every worker receives its encoding in
// KindConf in answer to its join hello, so every member holds the
// supervisor's own bytes; a returning member names their digest in its
// next join hello, so one holding a different config is rejected
// instead of diverging mid-run.
type clusterConf struct {
	N int // cluster size (worker process count)

	MaxChunkPayload  int
	ReassemblyBudget int
	ChildDeadline    time.Duration
	MaxResend        int

	// Heartbeat is the workers' control-plane ping interval (> 0);
	// Liveness is how long the supervisor lets a member stay silent
	// before declaring it dead (0 = conn errors only).
	Heartbeat time.Duration
	Liveness  time.Duration

	// KillNode/KillAfter inject the forced socket-kill scenario: node
	// KillNode severs its outgoing data-plane connections once, just
	// before its KillAfter-th data frame send. KillAfter == 0 disables.
	KillNode  int
	KillAfter int

	// DieNode/DieAfter inject the forced worker-death scenario: node
	// DieNode exits the whole process just before its DieAfter-th
	// data frame send (first incarnation only — a replacement must
	// not inherit the suicide). DieAfter == 0 disables.
	DieNode  int
	DieAfter int

	Faults dist.FaultPlan
}

// distConfig is the dist.Config a worker derives from the agreed
// cluster config for its node-local protocol runs.
func (c clusterConf) distConfig() dist.Config {
	return dist.Config{
		ChildDeadline:    c.ChildDeadline,
		MaxResend:        c.MaxResend,
		MaxChunkPayload:  c.MaxChunkPayload,
		ReassemblyBudget: c.ReassemblyBudget,
	}
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// appendString appends s behind its 2-byte length.
func appendString(b []byte, s string) []byte { return append(appendU16(b, uint16(len(s))), s...) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// confReader walks one control-plane encoding — the conf blob, a control
// frame's payload, the journal snapshot — remembering the first error;
// what names the encoding in it.
type confReader struct {
	b    []byte
	what string
	err  error
}

// take cuts the next n bytes off the front. Past the end — which becomes
// the error — and after any error it yields zeroes, so the fixed-width
// getters need no check of their own: at most the 8 bytes the widest of
// them reads, never an allocation sized by the input.
func (r *confReader) take(n int) []byte {
	if r.err == nil && len(r.b) < n {
		r.err = fmt.Errorf("proc: truncated %s", r.what)
	}
	if r.err != nil {
		return make([]byte, min(n, 8))
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *confReader) byteVal() byte { return r.take(1)[0] }
func (r *confReader) u16() uint16   { return binary.LittleEndian.Uint16(r.take(2)) }
func (r *confReader) u32() uint32   { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *confReader) u64() uint64   { return binary.LittleEndian.Uint64(r.take(8)) }
func (r *confReader) i64() int64    { return int64(r.u64()) }

// str reads a 2-byte-length-prefixed string.
func (r *confReader) str() string { return string(r.take(int(r.u16()))) }

// flag reads a canonical boolean: any byte but 0 or 1 is an error, so
// distinct encodings never decode to one value.
func (r *confReader) flag() bool {
	v := r.byteVal()
	if r.err == nil && v > 1 {
		r.err = fmt.Errorf("proc: %s carries boolean byte %d, want 0 or 1", r.what, v)
	}
	return v == 1
}

// version reads the leading spec-version byte.
func (r *confReader) version() {
	if v := r.byteVal(); r.err == nil && v != specVersion {
		r.err = fmt.Errorf("proc: %s spec version %d, this build speaks %d", r.what, v, specVersion)
	}
}

// done ends the walk: the first error, or an error for bytes left over.
func (r *confReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("proc: %d trailing bytes after %s", len(r.b), r.what)
	}
	return r.err
}

// encodeConf flattens the cluster config canonically (field order is
// part of the digest contract).
func encodeConf(c clusterConf) []byte {
	b := make([]byte, 0, 160)
	b = append(b, specVersion)
	b = appendI64(b, int64(c.N))
	b = appendI64(b, int64(c.MaxChunkPayload))
	b = appendI64(b, int64(c.ReassemblyBudget))
	b = appendI64(b, int64(c.ChildDeadline))
	b = appendI64(b, int64(c.MaxResend))
	b = appendI64(b, int64(c.Heartbeat))
	b = appendI64(b, int64(c.Liveness))
	b = appendI64(b, int64(c.KillNode))
	b = appendI64(b, int64(c.KillAfter))
	b = appendI64(b, int64(c.DieNode))
	b = appendI64(b, int64(c.DieAfter))
	b = appendU64(b, c.Faults.Seed)
	b = appendU64(b, math.Float64bits(c.Faults.DropProb))
	b = appendI64(b, int64(c.Faults.MaxDrops))
	b = appendI64(b, int64(c.Faults.RetryDelay))
	b = appendU64(b, math.Float64bits(c.Faults.DupProb))
	b = appendI64(b, int64(c.Faults.MaxDelay))
	return appendBool(b, c.Faults.Reorder)
}

// decodeConf inverts encodeConf, validating the spec version and the
// decoded shape.
func decodeConf(raw []byte) (clusterConf, error) {
	var c clusterConf
	r := &confReader{b: raw, what: "cluster config"}
	r.version()
	c.N = int(r.i64())
	c.MaxChunkPayload = int(r.i64())
	c.ReassemblyBudget = int(r.i64())
	c.ChildDeadline = time.Duration(r.i64())
	c.MaxResend = int(r.i64())
	c.Heartbeat = time.Duration(r.i64())
	c.Liveness = time.Duration(r.i64())
	c.KillNode = int(r.i64())
	c.KillAfter = int(r.i64())
	c.DieNode = int(r.i64())
	c.DieAfter = int(r.i64())
	c.Faults.Seed = r.u64()
	c.Faults.DropProb = math.Float64frombits(r.u64())
	c.Faults.MaxDrops = int(r.i64())
	c.Faults.RetryDelay = time.Duration(r.i64())
	c.Faults.DupProb = math.Float64frombits(r.u64())
	c.Faults.MaxDelay = time.Duration(r.i64())
	c.Faults.Reorder = r.flag()
	if err := r.done(); err != nil {
		return c, err
	}
	if c.N < 1 || c.Heartbeat <= 0 {
		return c, fmt.Errorf("proc: cluster config declares %d nodes and a %v heartbeat", c.N, c.Heartbeat)
	}
	return c, nil
}

// confDigest is the run-config digest of the join handshake: FNV-64a
// over the raw canonical conf encoding. Workers digest the bytes they
// actually parsed, so any drift — a knob, the cluster size, even the
// spec version byte — flips the digest.
func confDigest(raw []byte) uint64 {
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

// Control-plane stream ids (Frame.Seq). The control connection is a
// dedicated reliable TCP stream per worker, a message's chunks are
// written back to back (ctlConn.send), and its reader remembers no
// completed stream (ctlConn.read), so a stream id may carry any number
// of messages. The ids therefore only name what a message belongs to:
// cluster-lifetime messages (hello, conf, ping, shutdown, admission
// errors) share ctrlSeqCluster, and every message of a job — its spec,
// rows, ready, peers, result or error, and done — that job's id.
const ctrlSeqCluster uint32 = 0

func ctrlSeqJob(jobIdx int) uint32 { return 1 + uint32(jobIdx) }

// hello is the decoded KindHello payload, a connection's first frame:
// the worker's build, and for a returning member the config and epoch
// it held.
type hello struct {
	version   byte   // frame codec version the worker speaks
	levels    byte   // rsum summation level count compiled into the worker
	specver   byte   // control-plane spec version the worker speaks
	returning bool   // the worker holds the cluster config it was last sent
	digest    uint64 // confDigest of that config (returning member)
	epoch     uint64 // last supervisor epoch the worker attached to (0 = none)
}

// encodeHello flattens the join handshake payload:
//
//	offset  size  field
//	0       1     frame codec version
//	1       1     rsum level count
//	2       1     control-plane spec version
//	3       1     flags: 1 = returning member, else 0
//	4       8     run-config digest (FNV-64a; zero unless returning)
//	12      8     supervisor fencing epoch the worker last attached to
func encodeHello(h hello) []byte {
	b := append(make([]byte, 0, 20), h.version, h.levels, h.specver)
	b = appendBool(b, h.returning)
	b = appendU64(b, h.digest)
	return appendU64(b, h.epoch)
}

// decodeHello inverts encodeHello. The spec version is checked before
// anything after it is read: a build speaking another version is told
// so, whatever its remaining bytes mean.
func decodeHello(payload []byte) (hello, error) {
	r := &confReader{b: payload, what: "hello"}
	h := hello{version: r.byteVal(), levels: r.byteVal(), specver: r.byteVal()}
	if r.err == nil && h.specver != specVersion {
		return h, fmt.Errorf("%w: worker speaks control-plane spec v%d, supervisor speaks v%d",
			dist.ErrHandshake, h.specver, specVersion)
	}
	h.returning, h.digest, h.epoch = r.flag(), r.u64(), r.u64()
	return h, r.done()
}

// pingStats is the decoded KindPing payload. A heartbeat doubles as
// the worker's telemetry report: its data-plane wire counters
// (cumulative since process start), the RTT it measured on its previous
// ping from the supervisor's echo, and the nonce that names the
// reporting process, so the supervisor folds each process's counters
// as deltas against that process's own previous report.
type pingStats struct {
	sentNanos int64  // sender's send timestamp (echoed back in the pong)
	rttNanos  int64  // RTT the worker measured from the previous echo (0 = none yet)
	nonce     uint64 // random per worker process, fixed for its lifetime
	wire      dist.WireStats
}

// wireFields lists the heartbeat's wire counters in payload order;
// wireNames names them, in the same order, for the supervisor's series.
func (p *pingStats) wireFields() [len(wireNames)]*uint64 {
	w := &p.wire
	return [...]*uint64{
		&w.FramesOut, &w.FramesIn, &w.BytesOut, &w.BytesIn, &w.ChanFrames,
		&w.ChunksSplit, &w.Retransmits, &w.ResendRequests, &w.ReassemblyRejects,
	}
}

var wireNames = [...]string{
	"frames_out", "frames_in", "bytes_out", "bytes_in", "chan_frames",
	"chunks_split", "retransmits", "resend_requests", "reassembly_rejects",
}

// encodePingStats flattens a heartbeat payload:
//
//	offset  size  field
//	0       1     control-plane spec version
//	1       8     sentNanos
//	9       8     rttNanos
//	17      8     nonce
//	25      9×8   WireStats fields, declaration order
func encodePingStats(p pingStats) []byte {
	b := make([]byte, 0, 1+3*8+9*8)
	b = append(b, specVersion)
	b = appendU64(b, uint64(p.sentNanos))
	b = appendU64(b, uint64(p.rttNanos))
	b = appendU64(b, p.nonce)
	for _, f := range p.wireFields() {
		b = appendU64(b, *f)
	}
	return b
}

// decodePingStats inverts encodePingStats. Every admitted member
// passed the hello's spec-version check, so a payload of any other
// layout is a protocol error, not a dialect.
func decodePingStats(payload []byte) (pingStats, error) {
	var p pingStats
	r := &confReader{b: payload, what: "ping"}
	r.version()
	p.sentNanos, p.rttNanos, p.nonce = r.i64(), r.i64(), r.u64()
	for _, f := range p.wireFields() {
		*f = r.u64()
	}
	return p, r.done()
}

// encodeConfFrame flattens a KindConf payload: the node id the
// supervisor assigned the joiner, the supervisor's fencing epoch, then
// the raw cluster config.
func encodeConfFrame(id int, epoch uint64, raw []byte) []byte {
	b := make([]byte, 0, 12+len(raw))
	b = appendU32(b, uint32(int32(id)))
	b = appendU64(b, epoch)
	return append(b, raw...)
}

// decodeConfFrame inverts encodeConfFrame.
func decodeConfFrame(payload []byte) (id int, epoch uint64, raw []byte, err error) {
	r := &confReader{b: payload, what: "conf frame"}
	id, epoch = int(int32(r.u32())), r.u64()
	return id, epoch, r.b, r.err
}

// encodeReady flattens a KindReady payload: the job index and the
// worker's freshly bound data-plane listen address.
func encodeReady(jobIdx int, addr string) []byte {
	b := appendU32(make([]byte, 0, 6+len(addr)), uint32(jobIdx))
	return appendString(b, addr)
}

// decodeReady inverts encodeReady.
func decodeReady(payload []byte) (jobIdx int, addr string, err error) {
	r := &confReader{b: payload, what: "ready payload"}
	jobIdx, addr = int(r.u32()), r.str()
	if r.done() == nil && addr == "" {
		r.err = fmt.Errorf("proc: ready declares an empty address")
	}
	return jobIdx, addr, r.err
}

// encodePeers flattens a KindPeers payload: job index, epoch, and the
// cluster's data-plane address table (2B-length-prefixed each).
func encodePeers(jobIdx, epoch int, addrs []string) []byte {
	size := 10
	for _, a := range addrs {
		size += 2 + len(a)
	}
	b := make([]byte, 0, size)
	b = appendU32(b, uint32(jobIdx))
	b = appendU32(b, uint32(epoch))
	b = appendU16(b, uint16(len(addrs)))
	for _, a := range addrs {
		b = appendString(b, a)
	}
	return b
}

// decodePeers inverts encodePeers.
func decodePeers(payload []byte) (jobIdx, epoch int, addrs []string, err error) {
	r := &confReader{b: payload, what: "peers payload"}
	jobIdx, epoch = int(r.u32()), int(r.u32())
	n := int(r.u16())
	for i := 0; i < n && r.err == nil; i++ {
		a := r.str()
		if r.err == nil && a == "" {
			r.err = fmt.Errorf("proc: peers address %d is empty", i)
		}
		addrs = append(addrs, a)
	}
	if err := r.done(); err != nil {
		return 0, 0, nil, err
	}
	return jobIdx, epoch, addrs, nil
}

// jobSpec is the decoded KindJob payload: the job's aggregate catalog
// and its shape, down to this worker's rows, which follow on the same
// connection as a KindRows stream.
type jobSpec struct {
	jobIdx      int
	incarnation int // 0 = original dispatch; >0 = re-shipped to a replacement
	workers     int
	specs       []sqlagg.AggSpec // empty for a reduction (see Job.Specs)
	rows, ncols int              // this worker's row count and value columns per row
}

// encodeJobSpec flattens a job:
//
//	4B job index, 4B incarnation, 8B workers,
//	aggregate catalog (sqlagg.EncodeSpecs, self-delimiting; a zero
//	count for a reduction), 8B rows, 2B ncols (the rows themselves
//	follow as KindRows chunks, see rowStream)
func encodeJobSpec(j jobSpec) ([]byte, error) {
	b := make([]byte, 0, 64)
	b = appendU32(b, uint32(j.jobIdx))
	b = appendU32(b, uint32(j.incarnation))
	b = appendI64(b, int64(j.workers))
	b, err := sqlagg.EncodeSpecs(b, j.specs)
	if err != nil {
		return nil, err
	}
	b = appendI64(b, int64(j.rows))
	return appendU16(b, uint16(j.ncols)), nil
}

// decodeJobSpec inverts encodeJobSpec, validating every length against
// the remaining bytes.
func decodeJobSpec(payload []byte) (jobSpec, error) {
	r := &confReader{b: payload, what: "job spec"}
	j := jobSpec{jobIdx: int(r.u32()), incarnation: int(r.u32()), workers: int(r.i64())}
	if r.err != nil {
		return j, r.err
	}
	if j.workers < 1 {
		return j, fmt.Errorf("proc: job spec declares %d worker goroutines", j.workers)
	}
	specs, n, err := sqlagg.DecodeSpecsPrefix(r.b) // empty for a reduction
	if err != nil {
		return j, fmt.Errorf("proc: job spec aggregate catalog: %w", err)
	}
	j.specs = specs
	r.take(n)
	rows := r.i64()
	j.rows, j.ncols = int(rows), int(r.u16())
	if err := r.done(); err != nil {
		return j, err
	}
	if rows < 0 || int64(j.rows) != rows || j.ncols < 1 || j.ncols > maxJobCols || len(j.specs) == 0 && j.ncols != 1 {
		return j, fmt.Errorf("%w: job declares %d rows × %d columns", dist.ErrBadFrame, rows, j.ncols)
	}
	return j, nil
}

// The rows stream of a job: node id's rows — shards id,
// id+n, id+2n, … of the caller's RowShards/ValueShards, the keys first
// (group-by only), then each value column — as KindRows frames numbered
// by Frame.Chunk/Chunks within one (job, incarnation) stream. Each
// payload is self-contained:
//
//	offset  size  field
//	0       4     job index
//	4       4     incarnation
//	8       2     segment: 0 = keys, c+1 = value column c
//	10      8     row offset of the first element within the node's rows
//	18      4     element count (>= 1)
//	22      …     count × 4B keys, or count × 8B float64 bits
//
// rowStream encodes from the caller's shards in place and rowSink
// decodes into the arrays the job aggregates: one copy per side.
const rowChunkHdr = 22

// rowChunkBytes bounds the elements of one chunk: a quarter of the
// 1 MiB of cache the GROUP BY model budgets per thread, so a chunk is
// encoded, checksummed and written (or read, checksummed and decoded)
// while it sits in L2, and a pong waits behind at most one.
// BenchmarkDispatch sweeps it.
const rowChunkBytes = 256 << 10

// rowStream encodes one node's rows of a job's source chunk by chunk.
type rowStream struct {
	src            *Source
	n, id, ncols   int
	jobIdx, inc    int
	rows           int // this node's row count
	seg            int // next chunk's segment; > ncols once the rows are out
	shard, at, off int // its first element: row at of shard shard, row off of the node
}

func newRowStream(src *Source, ncols, n, id, jobIdx, inc int) *rowStream {
	st := &rowStream{src: src, n: n, id: id, ncols: ncols, jobIdx: jobIdx, inc: inc, shard: id}
	for i := id; i < len(src.cols); i += n {
		st.rows += st.shardRows(i)
	}
	if src.keys == nil {
		st.seg = 1
	}
	return st
}

func (st *rowStream) shardRows(i int) int {
	if st.src.keys != nil {
		return len(st.src.keys[i])
	}
	return len(st.src.cols[i][0])
}

// size is the chunk count and the payload bytes of the whole stream
// when cut at maxBytes.
func (st *rowStream) size(maxBytes int) (chunks uint32, bytes int) {
	per := func(elem int) int { return (st.rows*elem + maxBytes - 1) / maxBytes }
	n, width := st.ncols*per(8), 8*st.ncols
	if st.src.keys != nil {
		n, width = n+per(4), width+4
	}
	return uint32(n), n*rowChunkHdr + st.rows*width
}

// next appends the stream's next chunk payload, of at most maxBytes (a
// multiple of 8) of elements, to dst; ok is false once every row has
// been produced.
func (st *rowStream) next(dst []byte, maxBytes int) (_ []byte, ok bool) {
	if st.seg > st.ncols || st.rows == 0 {
		return dst, false
	}
	elem := 8
	if st.seg == 0 {
		elem = 4
	}
	count := min(st.rows-st.off, maxBytes/elem)
	dst = appendU32(appendU32(dst, uint32(st.jobIdx)), uint32(st.inc))
	dst = appendU64(appendU16(dst, uint16(st.seg)), uint64(st.off))
	dst = slices.Grow(appendU32(dst, uint32(count)), count*elem)
	for need := count; need > 0; {
		take := min(need, st.shardRows(st.shard)-st.at)
		if st.seg == 0 {
			for _, k := range st.src.keys[st.shard][st.at : st.at+take] {
				dst = appendU32(dst, k)
			}
		} else if take > 0 { // an empty shard may omit its columns
			for _, v := range st.src.cols[st.shard][st.seg-1][st.at : st.at+take] {
				dst = appendU64(dst, math.Float64bits(v))
			}
		}
		need -= take
		if st.at += take; st.at == st.shardRows(st.shard) {
			st.shard, st.at = st.shard+st.n, 0
		}
	}
	if st.off += count; st.off == st.rows {
		st.seg, st.shard, st.at, st.off = st.seg+1, st.id, 0, 0
	}
	return dst, true
}

// rowSink is the worker side of a rows stream: the job's input arrays,
// sized from the shape KindJob declared and filled in place, strictly in
// stream order. The arrays are the session's (jobMemory): they outlive
// the job, pass to the next one when it is prepared if they are big
// enough, and are otherwise replaced by larger ones, so a worker keeps
// those of its largest job.
type rowSink struct {
	jobIdx, inc, rows int
	keys              []uint32 // nil for a reduction
	cols              [][]float64
	seg, off          int // the next chunk must start here; seg > len(cols) when complete
}

// newRowSink sizes the input arrays of a job: mem's, where they are big
// enough (a nil mem has none), else new ones that mem then keeps. The
// shape crossed a trust boundary: rows × row width is charged against
// budget (the connection's) before anything is allocated, so a hostile
// 2^61-row header is a typed ErrChunkBudget, not an allocation. Reused
// arrays are not zeroed: the job starts only once accept has filled
// every element in order.
func newRowSink(js jobSpec, budget int, mem *jobMemory) (*rowSink, error) {
	s := &rowSink{jobIdx: js.jobIdx, inc: js.incarnation, rows: js.rows, seg: 1}
	width := 8 * js.ncols
	if len(js.specs) > 0 {
		width, s.seg = width+4, 0
	}
	if js.rows > budget/width {
		return nil, fmt.Errorf("%w: job declares %d rows of %d bytes against a %d-byte budget",
			dist.ErrChunkBudget, js.rows, width, budget)
	}
	if mem == nil {
		mem = new(jobMemory)
	}
	if len(js.specs) > 0 {
		s.keys = grown(&mem.keys, js.rows)
	}
	flat := grown(&mem.vals, js.ncols*js.rows)
	for c := 0; c < js.ncols; c++ {
		s.cols = append(s.cols, flat[c*js.rows:(c+1)*js.rows:(c+1)*js.rows])
	}
	return s, nil
}

// grown returns n elements of *buf, made anew only when it is too small.
func grown[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

func (s *rowSink) complete() bool { return s.rows == 0 || s.seg > len(s.cols) }

// accept copies one KindRows chunk into place. A chunk of another
// (job, incarnation) is a straggler of a stream this connection has
// moved on from and is ignored; anything else that is not exactly the
// next run of this stream — a gap, a repeat, an overrun, a chunk past
// the end, a last chunk that leaves rows missing — is an ErrBadFrame.
func (s *rowSink) accept(f dist.Frame) error {
	p := f.Payload
	if len(p) < rowChunkHdr {
		return fmt.Errorf("%w: %d-byte row chunk", dist.ErrBadFrame, len(p))
	}
	if binary.LittleEndian.Uint32(p) != uint32(s.jobIdx) || binary.LittleEndian.Uint32(p[4:]) != uint32(s.inc) {
		return nil
	}
	seg, off := int(binary.LittleEndian.Uint16(p[8:])), binary.LittleEndian.Uint64(p[10:])
	count, data := uint64(binary.LittleEndian.Uint32(p[18:])), p[rowChunkHdr:]
	elem := 8
	if seg == 0 {
		elem = 4
	}
	if s.complete() || seg != s.seg || off != uint64(s.off) ||
		count < 1 || count > uint64(s.rows-s.off) || uint64(len(data)) != count*uint64(elem) {
		return fmt.Errorf("%w: row chunk %d (segment %d, row %d, %d elements in %d bytes) does not continue the stream at segment %d row %d of %d",
			dist.ErrBadFrame, f.Chunk, seg, off, count, len(data), s.seg, s.off, s.rows)
	}
	if seg == 0 {
		for i := range s.keys[s.off : s.off+int(count)] {
			s.keys[s.off+i], data = binary.LittleEndian.Uint32(data), data[4:]
		}
	} else {
		col := s.cols[seg-1][s.off : s.off+int(count)]
		for i := range col {
			col[i], data = math.Float64frombits(binary.LittleEndian.Uint64(data)), data[8:]
		}
	}
	if s.off += int(count); s.off == s.rows {
		s.seg, s.off = s.seg+1, 0
	}
	if last := f.Chunk == f.Chunks-1; last != s.complete() {
		return fmt.Errorf("%w: rows stream's chunk %d of %d ends at segment %d row %d of %d",
			dist.ErrBadFrame, f.Chunk, f.Chunks, s.seg, s.off, s.rows)
	}
	return nil
}
