package proc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/sqlagg"
	"repro/internal/workload"
)

// TestMain arms the re-execution paths: when the test binary is
// spawned by a supervisor with the worker marker set it becomes a
// cluster worker, when spawned by the failover test with the
// supervisor marker set it becomes a journaled supervisor, and when
// spawned as REPROWORKER_BIN with impostorEnv set it becomes an
// impostor worker, instead of running the tests.
func TestMain(m *testing.M) {
	MaybeWorkerMain()
	maybeSupervisorMain()
	maybeImpostorMain()
	os.Exit(m.Run())
}

// quietOpts discards worker stderr: failure paths under test would
// otherwise spray expected error messages into the test log.
func quietOpts() Options { return Options{LogWriter: io.Discard} }

// oneShot runs job on a cluster of the given node count formed for it
// and closed after; like the in-process engine it refuses workers < 1,
// which Job.Workers alone would read as 1.
func oneShot(nodes int, cfg dist.Config, opt Options, job Job) (res Result, err error) {
	if job.Workers < 1 {
		return res, fmt.Errorf("%w (got %d)", dist.ErrWorkers, job.Workers)
	}
	c, err := NewCluster(ClusterSpec{Nodes: nodes, JoinTimeout: 30 * time.Second, Config: cfg, Options: opt})
	if err != nil {
		return res, err
	}
	r, err := c.Run(job)
	if cerr := c.Close(); err == nil {
		res, err = *r, cerr
	}
	return res, err
}

func Reduce(shards [][]float64, workers int, cfg dist.Config, opt Options) (float64, error) {
	res, err := oneShot(max(len(shards), 1), cfg, opt, Job{Workers: workers, Source: ValueShards(shards)})
	return res.Sum, err
}

func AggregateByKey(keys [][]uint32, vals [][]float64, workers int, cfg dist.Config, opt Options) ([]dist.Group, error) {
	cols := make([][][]float64, len(vals))
	for i, v := range vals {
		cols[i] = [][]float64{v}
	}
	res, err := oneShot(max(len(keys), 1), cfg, opt, Job{Workers: workers, Specs: []sqlagg.AggSpec{{Kind: sqlagg.AggSum}}, Source: RowShards(keys, cols)})
	groups := make([]dist.Group, len(res.Groups))
	for i, t := range res.Groups {
		groups[i] = dist.Group{Key: t.Key, Sum: t.Aggs[0]}
	}
	return groups, err
}

// matrixConfig is the protocol configuration of the equivalence tests:
// a short deadline keeps forced-recovery runs fast, and MaxResend < 0
// never gives up — a bounded cap races scheduler slowdown under -race.
func matrixConfig() dist.Config {
	return dist.Config{ChildDeadline: 250 * time.Millisecond, MaxResend: -1}
}

func shardFloats(vals []float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i, v := range vals {
		out[i%n] = append(out[i%n], v)
	}
	return out
}

func shardRows(keys []uint32, vals []float64, n int) ([][]uint32, [][]float64) {
	ks := make([][]uint32, n)
	vs := make([][]float64, n)
	for i := range keys {
		d := i % n
		ks[d] = append(ks[d], keys[i])
		vs[d] = append(vs[d], vals[i])
	}
	return ks, vs
}

// matrixShape sizes the cross-process equivalence tests. By default it
// is the PR-sized shape the caller passes, at one workload seed.
// REPRO_PROC_MATRIX=1 (CI nightly, with REPROWORKER_BIN pointing at the
// separately built worker binary) widens every test to 131072 rows,
// cluster sizes {2, 4, 8} and three workload seeds. It returns (seeds,
// rows, sizes); seeds are offsets added to each test's own base seeds,
// so offset 0 is the PR data.
func matrixShape(rows int, sizes ...int) ([]uint64, int, []int) {
	if os.Getenv("REPRO_PROC_MATRIX") == "1" {
		return []uint64{1, 2, 3}, 1 << 17, []int{2, 4, 8}
	}
	return []uint64{0}, rows, sizes
}

// TestProcReduceEquivalenceMatrix: the multi-process reduction carries
// exactly the bits of the in-process engine for every cluster size.
func TestProcReduceEquivalenceMatrix(t *testing.T) {
	seeds, rows, sizes := matrixShape(20000, 1, 2, 4)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			vals := workload.Values64(7+seed, rows, workload.MixedMag)
			want, err := dist.ReduceConfig([][]float64{vals}, 2, dist.Config{})
			if err != nil {
				t.Fatalf("in-process reference: %v", err)
			}
			wantBits := math.Float64bits(want)

			for _, n := range sizes {
				got, err := Reduce(shardFloats(vals, n), 2, matrixConfig(), quietOpts())
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if math.Float64bits(got) != wantBits {
					t.Errorf("n=%d: got %016x, want %016x — cross-process run broke bit-reproducibility",
						n, math.Float64bits(got), wantBits)
				}
			}
		})
	}
}

// TestProcGroupByEquivalenceMatrix: the multi-process GROUP BY shuffle
// matches the in-process engine bit for bit, in the single-frame and
// the forced multi-chunk regime.
func TestProcGroupByEquivalenceMatrix(t *testing.T) {
	regimes := []struct {
		name         string
		distinct     uint32
		chunkPayload int
	}{
		{"single", 128, 0},
		{"multi", 2048, 2048}, // ~60 B/pair × hundreds of keys per (sender, owner) ⇒ many chunks
	}
	seeds, rows, sizes := matrixShape(20000, 2, 4)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			vals := workload.Values64(11+seed, rows, workload.MixedMag)
			for _, reg := range regimes {
				keys := workload.Keys(13+seed, rows, reg.distinct)
				ref, err := dist.AggregateByKeyConfig([][]uint32{keys}, [][]float64{vals}, 2, dist.Config{})
				if err != nil {
					t.Fatalf("%s: in-process reference: %v", reg.name, err)
				}
				for _, n := range sizes {
					ks, vs := shardRows(keys, vals, n)
					cfg := matrixConfig()
					cfg.MaxChunkPayload = reg.chunkPayload
					got, err := AggregateByKey(ks, vs, 2, cfg, quietOpts())
					if err != nil {
						t.Fatalf("%s n=%d: %v", reg.name, n, err)
					}
					assertGroupsEqual(t, reg.name, n, got, ref)
				}
			}
		})
	}
}

func assertGroupsEqual(t *testing.T, name string, n int, got, want []dist.Group) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s n=%d: %d groups, want %d", name, n, len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || math.Float64bits(got[i].Sum) != math.Float64bits(want[i].Sum) {
			t.Fatalf("%s n=%d: group %d = (%d, %016x), want (%d, %016x) — bit mismatch",
				name, n, i, got[i].Key, math.Float64bits(got[i].Sum),
				want[i].Key, math.Float64bits(want[i].Sum))
		}
	}
}

// TestProcKillReconnectEquivalence forces a socket failure mid chunk
// stream — worker 1 severs every outgoing connection just before its
// 4th data frame, under an additionally hostile fault plan — and
// asserts the per-chunk resend path recovers over fresh connections
// with zero effect on the result bits.
func TestProcKillReconnectEquivalence(t *testing.T) {
	seeds, rows, _ := matrixShape(12000)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			vals := workload.Values64(17+seed, rows, workload.MixedMag)
			keys := workload.Keys(19+seed, rows, 2048)
			ref, err := dist.AggregateByKeyConfig([][]uint32{keys}, [][]float64{vals}, 2, dist.Config{})
			if err != nil {
				t.Fatalf("in-process reference: %v", err)
			}

			const n = 4
			ks, vs := shardRows(keys, vals, n)
			cfg := matrixConfig()
			cfg.MaxChunkPayload = 2048
			cfg.Faults = &dist.FaultPlan{
				Seed: 23 + seed, DropProb: 0.1, DupProb: 0.1, Reorder: true,
				MaxDelay: 200 * time.Microsecond, RetryDelay: 100 * time.Microsecond,
			}
			opt := quietOpts()
			opt.KillConnNode = 1
			opt.KillConnAfter = 4
			got, err := AggregateByKey(ks, vs, 2, cfg, opt)
			if err != nil {
				t.Fatalf("kill-reconnect run: %v", err)
			}
			assertGroupsEqual(t, "kill-reconnect", n, got, ref)

			// The same forced failure against the reduction tree.
			wantSum, err := dist.ReduceConfig([][]float64{vals}, 2, dist.Config{})
			if err != nil {
				t.Fatalf("in-process reduce reference: %v", err)
			}
			rcfg := matrixConfig()
			ropt := quietOpts()
			ropt.KillConnNode = 1
			ropt.KillConnAfter = 1 // sever before the very first partial leaves
			gotSum, err := Reduce(shardFloats(vals, n), 2, rcfg, ropt)
			if err != nil {
				t.Fatalf("kill-reconnect reduce: %v", err)
			}
			if math.Float64bits(gotSum) != math.Float64bits(wantSum) {
				t.Errorf("kill-reconnect reduce: got %016x, want %016x",
					math.Float64bits(gotSum), math.Float64bits(wantSum))
			}
		})
	}
}

// impostorEnv turns a spawned test binary into an impostor worker: it
// joins the supervisor named by its -join argument with a hello whose
// frame version ("version") or rsum level count ("levels") is not this
// build's, and exits with the worker's rejection code. A worker binary
// announces only what it was built with, so a mismatched build is
// played by the test, not configured into the worker.
const impostorEnv = "REPRO_TEST_IMPOSTOR"

func maybeImpostorMain() {
	what := os.Getenv(impostorEnv)
	if what == "" {
		return
	}
	h := joinHello()
	if what == "version" {
		h.version++
	} else {
		h.levels++
	}
	conn, err := net.DialTimeout("tcp", os.Args[len(os.Args)-1], 10*time.Second)
	if err != nil {
		os.Exit(ExitFailure)
	}
	c := newCtlConn(conn, 0)
	_ = c.send(dist.Frame{Kind: dist.KindHello, From: -1, Seq: ctrlSeqCluster, Payload: encodeHello(h)})
	if msg, err := c.read(); err == nil && msg.Kind == dist.KindError {
		os.Exit(ExitHandshake)
	}
	os.Exit(ExitFailure)
}

// TestHandshakeRejection drives each mismatch through the real spawn
// and join machinery — the spawned workers are impostors (this test
// binary as REPROWORKER_BIN, see impostorEnv), whatever worker binary
// the environment names — and asserts the run fails fast with the
// typed wire error naming the disagreement.
func TestHandshakeRejection(t *testing.T) {
	vals := workload.Values64(29, 1000, workload.MixedMag)
	shards := shardFloats(vals, 2)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		what string
		want string
	}{
		{"wrong frame version", "version", "frame version"},
		{"wrong level count", "levels", "rsum levels"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("REPROWORKER_BIN", exe)
			t.Setenv(impostorEnv, tc.what)
			_, err := Reduce(shards, 1, matrixConfig(), quietOpts())
			if !errors.Is(err, dist.ErrHandshake) {
				t.Fatalf("err = %v, want ErrHandshake", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %q does not name the mismatch (%q)", err, tc.want)
			}
		})
	}
}

// TestProcValidation: bad inputs fail before any process is spawned,
// with the same sentinels as the in-process engine.
func TestProcValidation(t *testing.T) {
	opt := quietOpts()
	if _, err := Reduce(nil, 1, dist.Config{}, opt); !errors.Is(err, dist.ErrNoShards) {
		t.Errorf("no shards: %v, want ErrNoShards", err)
	}
	if _, err := Reduce([][]float64{{1}}, 0, dist.Config{}, opt); !errors.Is(err, dist.ErrWorkers) {
		t.Errorf("0 workers: %v, want ErrWorkers", err)
	}
	if _, err := Reduce([][]float64{{1}}, 1, dist.Config{ReassemblyBudget: -1}, opt); !errors.Is(err, dist.ErrConfig) {
		t.Errorf("negative budget: %v, want ErrConfig", err)
	}
	if _, err := AggregateByKey([][]uint32{{1}}, [][]float64{{1}, {2}}, 1, dist.Config{}, opt); !errors.Is(err, dist.ErrShardMismatch) {
		t.Errorf("shard shape: %v, want ErrShardMismatch", err)
	}
	if _, err := AggregateByKey([][]uint32{{1, 2}}, [][]float64{{1}}, 1, dist.Config{}, opt); !errors.Is(err, dist.ErrShardMismatch) {
		t.Errorf("row mismatch: %v, want ErrShardMismatch", err)
	}
	if _, err := AggregateByKey([][]uint32{{1}}, [][]float64{{1}}, 1, dist.Config{MaxChunkPayload: -3}, opt); !errors.Is(err, dist.ErrConfig) {
		t.Errorf("negative chunk payload: %v, want ErrConfig", err)
	}
}

// TestWorkerBinaryMissing: a configured-but-absent worker binary fails
// the spawn cleanly.
func TestWorkerBinaryMissing(t *testing.T) {
	t.Setenv("REPROWORKER_BIN", "/nonexistent/reproworker")
	_, err := Reduce([][]float64{{1, 2}}, 1, dist.Config{}, quietOpts())
	if err == nil || !strings.Contains(err.Error(), "spawning worker") {
		t.Fatalf("err = %v, want a spawn failure", err)
	}
}

// TestProcsResharding: a cluster size different from the shard count
// re-deals rows without changing a bit.
func TestProcsResharding(t *testing.T) {
	vals := workload.Values64(31, 5000, workload.MixedMag)
	want, err := dist.ReduceConfig([][]float64{vals}, 2, dist.Config{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	// 5 shards dealt across 3 worker processes.
	res, err := oneShot(3, matrixConfig(), quietOpts(),
		Job{Workers: 2, Source: ValueShards(shardFloats(vals, 5))})
	if err != nil {
		t.Fatalf("3 nodes over 5 shards: %v", err)
	}
	if math.Float64bits(res.Sum) != math.Float64bits(want) {
		t.Errorf("resharded run: got %016x, want %016x", math.Float64bits(res.Sum), math.Float64bits(want))
	}
}

// TestSpecRoundTrip pins the control-plane codecs: conf, job-spec,
// hello, ready, and peers encodings survive a round trip, hostile
// inputs are rejected before any allocation, and the digest is
// sensitive to every conf field.
func TestSpecRoundTrip(t *testing.T) {
	conf := clusterConf{
		N:               5,
		MaxChunkPayload: 4096, ReassemblyBudget: 1 << 20,
		ChildDeadline: 250 * time.Millisecond, MaxResend: -1,
		Heartbeat: 40 * time.Millisecond, Liveness: 300 * time.Millisecond,
		KillNode: 2, KillAfter: 7, DieNode: 1, DieAfter: 3,
		Faults: dist.FaultPlan{Seed: 42, DropProb: 0.25, MaxDrops: 2,
			RetryDelay: time.Millisecond, DupProb: 0.5, MaxDelay: time.Millisecond, Reorder: true},
	}
	raw := encodeConf(conf)
	back, err := decodeConf(raw)
	if err != nil {
		t.Fatalf("decodeConf: %v", err)
	}
	if !reflect.DeepEqual(back, conf) {
		t.Fatalf("conf round trip: got %+v, want %+v", back, conf)
	}
	if _, err := decodeConf(raw[:len(raw)-1]); err == nil {
		t.Error("truncated conf decoded without error")
	}
	tampered := append([]byte(nil), raw...)
	tampered[len(tampered)-2]++
	if confDigest(tampered) == confDigest(raw) {
		t.Error("digest ignores a field change")
	}
	stale := append([]byte(nil), raw...)
	stale[0] = specVersion - 1
	if _, err := decodeConf(stale); err == nil {
		t.Error("stale-spec-version conf decoded without error")
	}
	sloppy := append([]byte(nil), raw...)
	sloppy[len(sloppy)-1] = 2 // Faults.Reorder, canonically 0 or 1
	if _, err := decodeConf(sloppy); err == nil {
		t.Error("conf with a non-canonical boolean decoded without error")
	}

	// A group-by job spec carries the catalog and only the shape of the
	// rows (they follow as a KindRows stream).
	specs := []sqlagg.AggSpec{
		{Kind: sqlagg.AggSum, Levels: 2, Col: 0},
		{Kind: sqlagg.AggAvg, Levels: 2, Col: 1},
	}
	jb, err := encodeJobSpec(jobSpec{
		jobIdx: 3, incarnation: 2, workers: 4,
		specs: specs, rows: 3, ncols: 2,
	})
	if err != nil {
		t.Fatalf("encodeJobSpec: %v", err)
	}
	j, err := decodeJobSpec(jb)
	if err != nil {
		t.Fatalf("decodeJobSpec: %v", err)
	}
	if j.jobIdx != 3 || j.incarnation != 2 || j.workers != 4 || len(j.specs) != 2 || j.rows != 3 || j.ncols != 2 {
		t.Fatalf("job spec round trip mismatch: %+v", j)
	}
	if _, err := decodeJobSpec(jb[:len(jb)-3]); err == nil {
		t.Error("truncated job spec decoded without error")
	}

	// A negative row count is rejected with the shape; a hostile
	// positive one is TestRowSinkRejections' (budget, before allocation).
	reduceHdr, err := encodeJobSpec(jobSpec{workers: 1, rows: 1, ncols: 1})
	if err != nil {
		t.Fatalf("encodeJobSpec(reduce): %v", err)
	}
	negative := append([]byte(nil), reduceHdr...)
	binary.LittleEndian.PutUint64(negative[18:], uint64(1<<63)) // the row count
	if _, err := decodeJobSpec(negative); err == nil {
		t.Error("negative-row job decoded without error")
	}
	// A reduction job must carry exactly one column.
	if _, err := encodeAndDecode(jobSpec{workers: 1, rows: 1, ncols: 2}); err == nil {
		t.Error("two-column reduction job decoded without error")
	}
	if _, err := encodeAndDecode(jobSpec{workers: 1, specs: specs}); err == nil {
		t.Error("zero-column job decoded without error")
	}

	h := hello{version: 2, levels: 2, specver: specVersion, returning: true, digest: 0xABCDEF, epoch: 3}
	hb := encodeHello(h)
	hback, err := decodeHello(hb)
	if err != nil {
		t.Fatalf("decodeHello: %v", err)
	}
	if hback != h {
		t.Fatalf("hello round trip: got %+v, want %+v", hback, h)
	}
	if _, err := decodeHello(hb[:5]); err == nil {
		t.Error("truncated hello decoded without error")
	}
	badFlags := append([]byte(nil), hb...)
	badFlags[3] = 2 // spec 11's fresh-join flag; this spec defines only "returning"
	if _, err := decodeHello(badFlags); err == nil {
		t.Error("hello with an undefined flag decoded without error")
	}
	badFlags[2] = specVersion - 1
	if _, err := decodeHello(badFlags); !errors.Is(err, dist.ErrHandshake) || !strings.Contains(err.Error(), "control-plane spec") {
		t.Errorf("stale hello: %v, want an ErrHandshake naming the spec version before the flags", err)
	}

	rb := encodeReady(7, "10.1.2.3:4567")
	rIdx, rAddr, err := decodeReady(rb)
	if err != nil || rIdx != 7 || rAddr != "10.1.2.3:4567" {
		t.Fatalf("ready round trip: %d %q %v", rIdx, rAddr, err)
	}
	if _, _, err := decodeReady(rb[:len(rb)-1]); err == nil {
		t.Error("truncated ready decoded without error")
	}

	pb := encodePeers(7, 3, []string{"127.0.0.1:1", "127.0.0.1:22"})
	pIdx, pEpoch, pAddrs, err := decodePeers(pb)
	if err != nil || pIdx != 7 || pEpoch != 3 || len(pAddrs) != 2 || pAddrs[1] != "127.0.0.1:22" {
		t.Fatalf("peers round trip: %d %d %v %v", pIdx, pEpoch, pAddrs, err)
	}
	if _, _, _, err := decodePeers(pb[:len(pb)-1]); err == nil {
		t.Error("truncated peers decoded without error")
	}

	cb := encodeConfFrame(4, 9, raw)
	cid, cepoch, craw, err := decodeConfFrame(cb)
	if err != nil || cid != 4 || cepoch != 9 || !reflect.DeepEqual(craw, raw) {
		t.Fatalf("conf frame round trip: %d %d %v", cid, cepoch, err)
	}
}

// TestPingOneVersion: a heartbeat is the current layout or a decode
// error — and the supervisor records the error in the event log while
// the ping still counts for liveness.
func TestPingOneVersion(t *testing.T) {
	ps := pingStats{sentNanos: 5, rttNanos: 7, nonce: 3, wire: dist.WireStats{FramesOut: 9, ReassemblyRejects: 1}}
	good := encodePingStats(ps)
	if back, err := decodePingStats(good); err != nil || back != ps {
		t.Fatalf("ping round trip: %+v, %v", back, err)
	}
	stale := append([]byte(nil), good...)
	stale[0] = specVersion - 1
	for name, bad := range map[string][]byte{"empty": nil, "truncated": good[:len(good)-1], "stale version": stale} {
		if _, err := decodePingStats(bad); err == nil {
			t.Errorf("%s ping decoded without error", name)
		}
	}

	cs := &connState{id: 1}
	l := handLoop(2)
	l.members[1] = cs
	l.handleMemberMsg(cs, dist.Frame{Kind: dist.KindPing, From: 1, Payload: stale})
	evs := l.c.elog.Events()
	if len(evs) != 1 || evs[0].Kind != "bad-ping" || evs[0].Node != 1 {
		t.Fatalf("event log after a stale ping: %+v", evs)
	}
	beats, ok := l.c.Registry().Value("repro_proc_heartbeats_total")
	if cs.lastSeen.IsZero() || !ok || beats != 0 {
		t.Fatalf("stale ping: lastSeen %v, heartbeats %v (registered %t); want liveness advanced, no stats folded", cs.lastSeen, beats, ok)
	}
}

// controlCodecs is every control-plane decoder paired with its encoder:
// recode decodes a payload and encodes what it got.
var controlCodecs = []struct {
	name   string
	recode func([]byte) ([]byte, error)
}{
	{"conf", func(b []byte) ([]byte, error) {
		c, err := decodeConf(b)
		return encodeConf(c), err
	}},
	{"hello", func(b []byte) ([]byte, error) {
		h, err := decodeHello(b)
		return encodeHello(h), err
	}},
	{"ping", func(b []byte) ([]byte, error) {
		p, err := decodePingStats(b)
		return encodePingStats(p), err
	}},
	{"conf frame", func(b []byte) ([]byte, error) {
		id, epoch, raw, err := decodeConfFrame(b)
		return encodeConfFrame(id, epoch, raw), err
	}},
	{"ready", func(b []byte) ([]byte, error) {
		jobIdx, addr, err := decodeReady(b)
		return encodeReady(jobIdx, addr), err
	}},
	{"peers", func(b []byte) ([]byte, error) {
		jobIdx, epoch, addrs, err := decodePeers(b)
		return encodePeers(jobIdx, epoch, addrs), err
	}},
	{"job spec", func(b []byte) ([]byte, error) {
		j, err := decodeJobSpec(b)
		if err != nil {
			return nil, err
		}
		return encodeJobSpec(j)
	}},
	{"journal snapshot", func(b []byte) ([]byte, error) {
		s, err := decodeJournalSnap(b)
		return encodeJournalSnap(s), err
	}},
}

// FuzzControlDecode: hostile bytes never panic a control-plane decoder
// (codec picks which), and whatever one accepts re-encodes to exactly
// the bytes it read — no two payloads mean the same message.
func FuzzControlDecode(f *testing.F) {
	specs := []sqlagg.AggSpec{{Kind: sqlagg.AggSum, Levels: 2, Col: 0}, {Kind: sqlagg.AggAvg, Levels: 2, Col: 1}}
	jobs := []jobSpec{
		{jobIdx: 3, incarnation: 2, workers: 4, specs: specs, rows: 3, ncols: 2},
		{workers: 1, rows: 100, ncols: 1},
		{jobIdx: 1, workers: 2, rows: 12345, ncols: 1},
	}
	conf := encodeConf(clusterConf{N: 3, MaxChunkPayload: 4096, Heartbeat: 500 * time.Millisecond, KillNode: -1, DieNode: -1,
		Faults: dist.FaultPlan{Seed: 42, DropProb: 0.25, Reorder: true}})
	valid := map[string][][]byte{
		"conf":             {conf},
		"hello":            {encodeHello(hello{version: 2, levels: 2, specver: specVersion, returning: true, digest: 0xABCDEF, epoch: 3})},
		"ping":             {encodePingStats(pingStats{sentNanos: 5, rttNanos: 7, nonce: 3, wire: dist.WireStats{FramesOut: 9, ReassemblyRejects: 1}})},
		"conf frame":       {encodeConfFrame(4, 9, conf)},
		"ready":            {encodeReady(7, "10.1.2.3:4567")},
		"peers":            {encodePeers(7, 3, []string{"127.0.0.1:1", "127.0.0.1:22"})},
		"journal snapshot": {encodeJournalSnap(journalTestSnap())},
	}
	for _, j := range jobs {
		b, err := encodeJobSpec(j)
		if err != nil {
			f.Fatal(err)
		}
		valid["job spec"] = append(valid["job spec"], b)
	}
	// Each codec is seeded with valid payloads and two structured
	// corruptions of each: a truncation and a raised last byte (conf's
	// boolean, the snapshot's CRC, an address, a count).
	for which, c := range controlCodecs {
		if len(valid[c.name]) == 0 {
			f.Fatalf("no seed for the %s codec", c.name)
		}
		for _, b := range valid[c.name] {
			raised := append([]byte(nil), b...)
			raised[len(raised)-1] += 2
			f.Add(uint8(which), b)
			f.Add(uint8(which), b[:len(b)-1])
			f.Add(uint8(which), raised)
		}
	}

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		c := controlCodecs[int(which)%len(controlCodecs)]
		out, err := c.recode(append([]byte(nil), data...))
		if err == nil && !bytes.Equal(out, data) {
			t.Fatalf("%s: decode→encode is not a fixpoint:\n in  %x\n out %x", c.name, data, out)
		}
	})
}

// encodeAndDecode round-trips a jobSpec through the wire codec,
// surfacing the first error from either side.
func encodeAndDecode(j jobSpec) (jobSpec, error) {
	b, err := encodeJobSpec(j)
	if err != nil {
		return jobSpec{}, err
	}
	return decodeJobSpec(b)
}
