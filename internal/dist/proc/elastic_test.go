package proc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/groupby"
	"repro/internal/rsum"
	"repro/internal/sqlagg"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// elasticSpec is the base cluster shape of the replacement tests: four
// nodes and one spawned standby parked for promotion.
func elasticSpec(cfg dist.Config) ClusterSpec {
	return ClusterSpec{
		Nodes:        4,
		SpawnStandby: 1,
		JoinTimeout:  30 * time.Second,
		Config:       cfg,
		Options:      quietOpts(),
	}
}

func sumSpecs() []sqlagg.AggSpec {
	return []sqlagg.AggSpec{{Kind: sqlagg.AggSum, Levels: core.DefaultLevels, Col: 0}}
}

// TestWorkerReplacementEquivalence is the acceptance scenario of the
// elastic runtime: a 4-worker cluster loses a worker mid chunk stream
// (injected process death), a parked standby is admitted through the
// control address as a substitute, and the final result is
// byte-identical to the undisturbed in-process reference.
func TestWorkerReplacementEquivalence(t *testing.T) {
	const rows = 12000
	keys, cols := workload.Keys(19, rows, 2048), [][]float64{workload.Values64(17, rows, workload.MixedMag)}
	refTuples, err := dist.AggregateTuplesConfig([][]uint32{keys}, [][][]float64{cols}, 2, sumSpecs(), dist.Config{})
	if err != nil {
		t.Fatalf("in-process reference: %v", err)
	}
	want := dist.EncodeTupleGroups(refTuples, 1)

	cfg := matrixConfig()
	cfg.MaxChunkPayload = 2048
	t.Run("raw-shards", func(t *testing.T) {
		spec := elasticSpec(cfg)
		spec.DieNode, spec.DieAfter = 1, 4 // die mid shuffle stream
		c, err := NewCluster(spec)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		defer c.Close()
		res, err := c.Run(Job{Workers: 2, Specs: sumSpecs(), Source: RowShards([][]uint32{keys}, [][][]float64{cols})})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.Replacements < 1 {
			t.Errorf("Replacements = %d, want >= 1 (the injected death must have fired)", res.Replacements)
		}
		if !bytes.Equal(res.Payload, want) {
			t.Errorf("result payload differs from the undisturbed in-process reference — replacement broke bit-reproducibility")
		}
		st := c.Stats()
		if st.Replaced < 1 || st.Joined < 5 {
			t.Errorf("stats = %+v, want >= 1 replacement over >= 5 admissions", st)
		}
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
}

// TestReduceReplacementEquivalence is the reduction-tree counterpart:
// the dying node is an interior node of the binomial tree (node 2, the
// parent of node 3) that dies before its very first partial leaves, so
// the substitute must re-serve the role from the start — collecting its
// child's partial again — while the root re-requests across the gap.
func TestReduceReplacementEquivalence(t *testing.T) {
	const rows = 10000
	vals := workload.Values64(23, rows, workload.MixedMag)
	want, err := dist.ReduceConfig([][]float64{vals}, 2, dist.Config{})
	if err != nil {
		t.Fatalf("in-process reference: %v", err)
	}

	spec := elasticSpec(matrixConfig())
	spec.DieNode, spec.DieAfter = 2, 1
	c, err := NewCluster(spec)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	// The same values twice, dealt to four shards and then to three —
	// two jobs on one cluster, exercising multi-job reuse on the
	// replacement path (the second job runs on the already-replaced
	// membership).
	res, err := c.Run(Job{Workers: 2, Source: ValueShards(shardFloats(vals, 4))})
	if err != nil {
		t.Fatalf("raw-shard run: %v", err)
	}
	if res.Replacements < 1 {
		t.Errorf("Replacements = %d, want >= 1", res.Replacements)
	}
	if math.Float64bits(res.Sum) != math.Float64bits(want) {
		t.Errorf("raw: got %016x, want %016x", math.Float64bits(res.Sum), math.Float64bits(want))
	}

	res2, err := c.Run(Job{Workers: 2, Source: ValueShards(shardFloats(vals, 3))})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if res2.Replacements != 0 {
		t.Errorf("second job replacements = %d, want 0 (death injection is first-incarnation only)", res2.Replacements)
	}
	if math.Float64bits(res2.Sum) != math.Float64bits(want) {
		t.Errorf("second: got %016x, want %016x", math.Float64bits(res2.Sum), math.Float64bits(want))
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestDeadSlotRefilledAfterTimeout: a death is a membership event,
// never a broken cluster. A zero-spec 2-node cluster with no standby
// loses node 1 at its first data frame; the job nobody rescues fails
// with ErrRecovering once JoinTimeout passes, a worker that joins later
// takes the empty slot, and the next job returns the in-process
// reference's bytes.
func TestDeadSlotRefilledAfterTimeout(t *testing.T) {
	const rows = 6000
	keys, vals := workload.Keys(43, rows, 512), workload.Values64(47, rows, workload.MixedMag)
	ref, err := dist.AggregateTuples([][]uint32{keys}, [][][]float64{{vals}}, 2, sumSpecs())
	if err != nil {
		t.Fatalf("in-process reference: %v", err)
	}
	want := dist.EncodeTupleGroups(ref, 1)

	c, err := NewCluster(ClusterSpec{Nodes: 2, JoinTimeout: 2 * time.Second, DieNode: 1, DieAfter: 1,
		Config: matrixConfig(), Options: quietOpts()})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	waitJoined(t, c, 2)
	job := Job{Workers: 2, Specs: sumSpecs(), Source: RowShards(
		[][]uint32{keys[:rows/2], keys[rows/2:]}, [][][]float64{{vals[:rows/2]}, {vals[rows/2:]}})}
	if _, err := c.Run(job); !errors.Is(err, ErrRecovering) {
		t.Fatalf("Run with a dead member and no substitute: %v, want ErrRecovering", err)
	}

	exit := make(chan int, 1)
	go func() { exit <- WorkerMain([]string{"-join", c.Addr()}) }()
	waitJoined(t, c, 3)
	res, err := c.Run(job)
	if err != nil {
		t.Fatalf("Run after the slot was refilled: %v", err)
	}
	if !bytes.Equal(res.Payload, want) {
		t.Error("result differs from the in-process reference")
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	select {
	case code := <-exit:
		if code != ExitOK {
			t.Errorf("the late joiner exited %d, want %d", code, ExitOK)
		}
	case <-time.After(10 * time.Second):
		t.Error("the late joiner did not exit after cluster close")
	}
}

// TestClusterReducePayloadIsOneGroup: a reduction job's Result.Payload
// is the lone group ⟨0, SUM⟩ in EncodeTupleGroups' single-SUM layout —
// the encoding every GROUP BY result has — and is empty, with Sum +0,
// for an input with no rows. The inputs hold signed zeros, NaN, both
// infinities and 2^1000.
func TestClusterReducePayloadIsOneGroup(t *testing.T) {
	c, err := NewCluster(ClusterSpec{Nodes: 3, JoinTimeout: 30 * time.Second, Config: matrixConfig(), Options: quietOpts()})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	big := math.Ldexp(1, 1000)
	for _, vals := range [][]float64{
		{0, math.Copysign(0, -1), 0},
		{math.Copysign(0, -1)},
		append(workload.Values64(3, 100, workload.MixedMag), big, -big, big, 1),
		{1, math.NaN(), big},
		{math.Inf(1), big, -1},
		{math.Copysign(0, -1), math.Inf(-1)},
		{math.Inf(1), 2, math.Inf(-1)},
		nil,
	} {
		var want []byte
		wantSum := 0.0
		if len(vals) > 0 {
			ref := rsum.NewState64(core.DefaultLevels)
			ref.AddSliceVec(vals)
			wantSum = ref.Value()
			want = dist.EncodeTupleGroups([]dist.TupleGroup{{Key: 0, Aggs: []float64{wantSum}}}, 1)
		}
		res, err := c.Run(Job{Workers: 2, Source: ValueShards(shardFloats(vals, 5))})
		if err != nil {
			t.Fatalf("%v: %v", vals, err)
		}
		if !bytes.Equal(res.Payload, want) {
			t.Fatalf("%v: payload %x, want %x", vals, res.Payload, want)
		}
		if math.Float64bits(res.Sum) != math.Float64bits(wantSum) {
			t.Fatalf("%v: Sum %016x, want %016x", vals, math.Float64bits(res.Sum), math.Float64bits(wantSum))
		}
	}
}

// TestClusterMultiJob runs a mixed sequence of jobs — reduce, group-by,
// TPC-H Q1 as raw rows — over one 3-node cluster and checks
// each against its in-process reference.
func TestClusterMultiJob(t *testing.T) {
	const rows = 8000
	c, err := NewCluster(ClusterSpec{
		Nodes: 3, JoinTimeout: 30 * time.Second,
		Config: matrixConfig(), Options: quietOpts(),
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	vals := workload.Values64(31, rows, workload.MixedMag)
	wantSum, err := dist.ReduceConfig([][]float64{vals}, 2, dist.Config{})
	if err != nil {
		t.Fatalf("reduce reference: %v", err)
	}
	res, err := c.Run(Job{Workers: 2, Source: ValueShards(shardFloats(vals, 5))})
	if err != nil {
		t.Fatalf("reduce job: %v", err)
	}
	if math.Float64bits(res.Sum) != math.Float64bits(wantSum) {
		t.Errorf("reduce: got %016x, want %016x", math.Float64bits(res.Sum), math.Float64bits(wantSum))
	}

	keys := workload.Keys(37, rows, 512)
	refTuples, err := dist.AggregateTuplesConfig([][]uint32{keys}, [][][]float64{{vals}}, 2, sumSpecs(), dist.Config{})
	if err != nil {
		t.Fatalf("groupby reference: %v", err)
	}
	ks, vs := shardRows(keys, vals, 3)
	cols := make([][][]float64, 3)
	for i := range vs {
		cols[i] = [][]float64{vs[i]}
	}
	res, err = c.Run(Job{Workers: 2, Specs: sumSpecs(), Source: RowShards(ks, cols)})
	if err != nil {
		t.Fatalf("groupby job: %v", err)
	}
	if !bytes.Equal(res.Payload, dist.EncodeTupleGroups(refTuples, 1)) {
		t.Error("groupby job payload differs from in-process reference")
	}

	const q1Rows, q1Seed = 9000, 7
	qkeys, qcols, err := tpch.Q1Input(tpch.GenLineitemRows(q1Rows, q1Seed))
	if err != nil {
		t.Fatalf("q1 input: %v", err)
	}
	q1Specs := tpch.Q1Specs(core.DefaultLevels)
	refQ1, err := dist.AggregateTuplesConfig([][]uint32{qkeys}, [][][]float64{qcols}, 2, q1Specs, dist.Config{})
	if err != nil {
		t.Fatalf("q1 reference: %v", err)
	}
	res, err = c.Run(Job{Workers: 2, Specs: q1Specs, Source: RowShards(tpch.ShardQ1Input(qkeys, qcols, 3))})
	if err != nil {
		t.Fatalf("q1 job: %v", err)
	}
	if !bytes.Equal(res.Payload, dist.EncodeTupleGroups(refQ1, len(q1Specs))) {
		t.Error("q1 job payload differs from in-process reference")
	}

	st := c.Stats()
	if st.Joined != 3 || st.Replaced != 0 {
		t.Errorf("stats = %+v, want 3 joins, 0 replacements", st)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := c.Run(Job{Workers: 1, Source: ValueShards([][]float64{{1}})}); !errors.Is(err, ErrClusterClosed) {
		t.Errorf("run on closed cluster: %v, want ErrClusterClosed", err)
	}
}

// TestClusterWithoutExec forms a cluster in which no process is ever
// exec'd: both workers are goroutines of this test binary running the
// reproworker entry point with nothing but the control address. It pins
// that admission depends on no argv or environment beyond -join, and
// that the job path is the same one spawned workers run.
func TestClusterWithoutExec(t *testing.T) {
	c, err := NewCluster(ClusterSpec{Nodes: 2, Join: 2, JoinTimeout: 30 * time.Second,
		Config: matrixConfig(), Options: quietOpts()})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	exits := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() { exits <- WorkerMain([]string{"-join", c.Addr()}) }()
	}

	const rows, seed = 9000, 7
	keys, cols, err := tpch.Q1Input(tpch.GenLineitemRows(rows, seed))
	if err != nil {
		t.Fatalf("q1 input: %v", err)
	}
	specs := tpch.Q1Specs(core.DefaultLevels)
	ref, err := dist.AggregateTuplesConfig([][]uint32{keys}, [][][]float64{cols}, 2, specs, dist.Config{})
	if err != nil {
		t.Fatalf("q1 reference: %v", err)
	}
	shardKeys, shardCols := tpch.ShardQ1Input(keys, cols, 3)
	res, err := c.Run(Job{Workers: 2, Specs: specs, Source: RowShards(shardKeys, shardCols)})
	if err != nil {
		t.Fatalf("q1 job: %v", err)
	}
	if !bytes.Equal(res.Payload, dist.EncodeTupleGroups(ref, len(specs))) {
		t.Error("q1 job payload differs from in-process reference")
	}

	vals := workload.Values64(43, rows, workload.MixedMag)
	wantSum, err := dist.ReduceConfig([][]float64{vals}, 2, dist.Config{})
	if err != nil {
		t.Fatalf("reduce reference: %v", err)
	}
	res, err = c.Run(Job{Workers: 2, Source: ValueShards(shardFloats(vals, 2))})
	if err != nil {
		t.Fatalf("reduce job: %v", err)
	}
	if math.Float64bits(res.Sum) != math.Float64bits(wantSum) {
		t.Errorf("reduce: got %016x, want %016x", math.Float64bits(res.Sum), math.Float64bits(wantSum))
	}

	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case code := <-exits:
			if code != ExitOK {
				t.Errorf("in-process worker exited %d, want %d", code, ExitOK)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("in-process worker did not return after cluster close")
		}
	}
}

// TestElasticMatrix is the nightly elastic-matrix sweep: kill one
// worker mid-run at several seeds for each job kind — group-by,
// reduce, and TPC-H Q1 — with a standby joiner, asserting bit-equality
// against the in-process reference every time. The full sweep is
// gated behind REPRO_ELASTIC_MATRIX=1 (CI nightly); a single seed runs
// by default.
func TestElasticMatrix(t *testing.T) {
	seeds := []uint64{101}
	if os.Getenv("REPRO_ELASTIC_MATRIX") == "1" {
		seeds = []uint64{101, 202, 303}
	}
	const rows = 9000
	cfg := matrixConfig()
	cfg.MaxChunkPayload = 2048

	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			newVictim := func(die int) *Cluster {
				spec := elasticSpec(cfg)
				spec.DieNode, spec.DieAfter = 1, die
				c, err := NewCluster(spec)
				if err != nil {
					t.Fatalf("NewCluster: %v", err)
				}
				return c
			}

			// group-by
			keys, cols := workload.Keys(seed+1, rows, 1024), [][]float64{workload.Values64(seed, rows, workload.MixedMag)}
			ref, err := dist.AggregateTuplesConfig([][]uint32{keys}, [][][]float64{cols}, 2, sumSpecs(), dist.Config{})
			if err != nil {
				t.Fatalf("groupby reference: %v", err)
			}
			c := newVictim(4)
			res, err := c.Run(Job{Workers: 2, Specs: sumSpecs(), Source: RowShards(groupby.Deal(keys, cols, 4))})
			if err == nil && !bytes.Equal(res.Payload, dist.EncodeTupleGroups(ref, 1)) {
				err = errors.New("payload differs from in-process reference")
			}
			if err == nil && res.Replacements < 1 {
				err = errors.New("no replacement happened")
			}
			c.Close()
			if err != nil {
				t.Errorf("groupby: %v", err)
			}

			// reduce
			rcols := [][]float64{workload.Values64(seed+2, rows, workload.MixedMag)}
			wantSum, err := dist.ReduceConfig([][]float64{rcols[0]}, 2, dist.Config{})
			if err != nil {
				t.Fatalf("reduce reference: %v", err)
			}
			c = newVictim(1)
			res, err = c.Run(Job{Workers: 2, Source: ValueShards(shardFloats(rcols[0], 4))})
			if err == nil && math.Float64bits(res.Sum) != math.Float64bits(wantSum) {
				err = errors.New("sum bits differ from in-process reference")
			}
			if err == nil && res.Replacements < 1 {
				err = errors.New("no replacement happened")
			}
			c.Close()
			if err != nil {
				t.Errorf("reduce: %v", err)
			}

			// TPC-H Q1
			qkeys, qcols, err := tpch.Q1Input(tpch.GenLineitemRows(rows, seed))
			if err != nil {
				t.Fatalf("q1 input: %v", err)
			}
			q1Specs := tpch.Q1Specs(core.DefaultLevels)
			refQ1, err := dist.AggregateTuplesConfig([][]uint32{qkeys}, [][][]float64{qcols}, 2, q1Specs, dist.Config{})
			if err != nil {
				t.Fatalf("q1 reference: %v", err)
			}
			c = newVictim(4)
			res, err = c.Run(Job{Workers: 2, Specs: q1Specs, Source: RowShards(tpch.ShardQ1Input(qkeys, qcols, 3))})
			if err == nil && !bytes.Equal(res.Payload, dist.EncodeTupleGroups(refQ1, len(q1Specs))) {
				err = errors.New("payload differs from in-process reference")
			}
			if err == nil && res.Replacements < 1 {
				err = errors.New("no replacement happened")
			}
			c.Close()
			if err != nil {
				t.Errorf("q1: %v", err)
			}
		})
	}
}

// rawJoinConn dials a cluster's control address for a hand-crafted
// handshake exchange.
type rawJoinConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawJoinConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial control: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawJoinConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (r *rawJoinConn) send(f dist.Frame) {
	r.t.Helper()
	f.Chunks = 1
	if err := dist.WriteFrame(r.conn, f); err != nil {
		r.t.Fatalf("write frame: %v", err)
	}
}

func (r *rawJoinConn) read() dist.Frame {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := dist.ReadFrame(r.br)
	if err != nil {
		r.t.Fatalf("read frame: %v", err)
	}
	if f.Chunks != 1 {
		r.t.Fatalf("kind %d frame is chunk %d of %d, want a single-frame message", f.Kind, f.Chunk, f.Chunks)
	}
	return f
}

// expectRejection asserts the next frame is a typed KindError carrying
// ErrHandshake and naming the reason.
func (r *rawJoinConn) expectRejection(want string) {
	r.t.Helper()
	f := r.read()
	if f.Kind != dist.KindError {
		r.t.Fatalf("got kind %d, want KindError", f.Kind)
	}
	err := dist.DecodeErr(-1, f.Payload)
	if !errors.Is(err, dist.ErrHandshake) {
		r.t.Fatalf("err = %v, want ErrHandshake", err)
	}
	if !strings.Contains(err.Error(), want) {
		r.t.Errorf("err %q does not name the reason (%q)", err, want)
	}
}

// joinHello is a fresh joiner's hello: this build, nothing else.
func joinHello() hello {
	return hello{version: dist.FrameVersion, levels: byte(core.DefaultLevels), specver: specVersion}
}

// goodHello is a returning member's hello naming the given config
// digest.
func goodHello(digest uint64) hello {
	h := joinHello()
	h.returning, h.digest = true, digest
	return h
}

// waitJoined polls until the cluster has admitted n members.
func waitJoined(t *testing.T, c *Cluster, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for c.Stats().Joined < n {
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached %d admissions (stats %+v)", n, c.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJoinHandshakeRejection drives each verdict of the one admission
// handshake through a hand-crafted TCP exchange and asserts the typed
// KindError answer: a stale control-plane spec version, a wrong frame
// version, a wrong rsum level count, a returning member holding another
// config than the one it would be sent, a returning member fenced at a
// newer epoch than the supervisor's, a returning member whose slot was
// taken (admitted, at the assigned slot), and a joiner arriving with
// the cluster full and no standby capacity.
func TestJoinHandshakeRejection(t *testing.T) {
	// Each case corrupts one field of an encoded fresh join hello; the
	// stale build is spec 11's fresh joiner, whose flags byte (2) this
	// spec does not define — it must still be told it is stale.
	for _, tc := range []struct {
		name string
		mut  func([]byte)
		want string
	}{
		{"stale spec version", func(b []byte) { b[2], b[3] = specVersion-1, 2 }, "control-plane spec"},
		{"wrong frame version", func(b []byte) { b[0]++ }, "frame version"},
		{"wrong level count", func(b []byte) { b[1]++ }, "rsum levels"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(ClusterSpec{Nodes: 1, Join: 1,
				JoinTimeout: 30 * time.Second, Options: quietOpts()})
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			defer c.Close()
			r := dialRaw(t, c.Addr())
			b := encodeHello(joinHello())
			tc.mut(b)
			r.send(dist.Frame{Kind: dist.KindHello, From: -1, Seq: ctrlSeqCluster, Payload: b})
			r.expectRejection(tc.want)
		})
	}

	t.Run("wrong digest after conf", func(t *testing.T) {
		c, err := NewCluster(ClusterSpec{Nodes: 1, Join: 1,
			JoinTimeout: 30 * time.Second, Options: quietOpts()})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		defer c.Close()
		// A returning member's join hello names the digest of the config
		// it holds: the one digest check left in the handshake.
		r := dialRaw(t, c.Addr())
		r.send(dist.Frame{Kind: dist.KindHello, From: 0, Seq: ctrlSeqCluster, Payload: encodeHello(goodHello(c.digest ^ 0xBAD))})
		r.expectRejection("digest")
	})

	t.Run("returning member from a newer epoch", func(t *testing.T) {
		c, err := NewCluster(ClusterSpec{Nodes: 1, Join: 1,
			JoinTimeout: 30 * time.Second, Options: quietOpts()})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		defer c.Close()
		r := dialRaw(t, c.Addr())
		h := goodHello(c.digest)
		h.epoch = 5
		r.send(dist.Frame{Kind: dist.KindHello, From: 0, Seq: ctrlSeqCluster, Payload: encodeHello(h)})
		r.expectRejection("stale supervisor")
	})

	// Not a rejection: a returning member whose recorded slot went to
	// someone else meanwhile is handed — and adopts — the next free one.
	t.Run("returning member's slot taken", func(t *testing.T) {
		c, err := NewCluster(ClusterSpec{Nodes: 2, Join: 2,
			JoinTimeout: 30 * time.Second, Options: quietOpts()})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		defer c.Close()
		fresh := &workerSession{id: -1}
		returning := &workerSession{id: 0, conf: c.conf, raw: c.raw}
		for _, s := range []*workerSession{fresh, returning} {
			if ctl, err := s.attach(dialRaw(t, c.Addr()).conn); ctl == nil {
				t.Fatalf("attach: not admitted (err %v)", err)
			}
		}
		waitJoined(t, c, 2)
		if fresh.id != 0 || returning.id != 1 {
			t.Errorf("slots = %d, %d; want the fresh arrival in 0 and the returning member moved to 1", fresh.id, returning.id)
		}
	})

	t.Run("cluster full", func(t *testing.T) {
		c, err := NewCluster(ClusterSpec{Nodes: 1,
			JoinTimeout: 30 * time.Second, Options: quietOpts()})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		defer c.Close()
		waitJoined(t, c, 1)
		r := dialRaw(t, c.Addr())
		r.send(dist.Frame{Kind: dist.KindHello, From: -1, Seq: ctrlSeqCluster, Payload: encodeHello(joinHello())})
		r.expectRejection("cluster is full")
	})
}

// TestAdmissionIsOneHello: a joiner that sends its join hello and
// nothing else is a member once the supervisor has sent it KindConf —
// counted in Stats().Joined, and shipped the next job on the same
// connection.
func TestAdmissionIsOneHello(t *testing.T) {
	c, err := NewCluster(ClusterSpec{Nodes: 1, Join: 1, JoinTimeout: 30 * time.Second, Options: quietOpts()})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	r := dialRaw(t, c.Addr())
	r.send(dist.Frame{Kind: dist.KindHello, From: -1, Seq: ctrlSeqCluster, Payload: encodeHello(joinHello())})
	conf := r.read()
	if conf.Kind != dist.KindConf {
		t.Fatalf("got kind %d, want KindConf", conf.Kind)
	}
	if id, _, _, err := decodeConfFrame(conf.Payload); err != nil || id != 0 {
		t.Fatalf("KindConf assigns slot %d (err %v), want 0", id, err)
	}
	waitJoined(t, c, 1)

	runErr := make(chan error, 1)
	go func() {
		_, err := c.Run(Job{Source: ValueShards([][]float64{{1, 2, 3}})})
		runErr <- err
	}()
	if job := r.read(); job.Kind != dist.KindJob {
		t.Fatalf("the member's next frame is kind %d, want KindJob", job.Kind)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := <-runErr; !errors.Is(err, ErrClusterClosed) {
		t.Errorf("Run on the closed cluster: %v, want ErrClusterClosed", err)
	}
}

// TestLivenessReplacement: a member that completes the handshake and
// then falls silent past the liveness window is declared dead and
// replaced by a parked joiner; the job completes with reference bits.
func TestLivenessReplacement(t *testing.T) {
	const rows = 4000
	vals := workload.Values64(41, rows, workload.MixedMag)
	want, err := dist.ReduceConfig([][]float64{vals}, 1, dist.Config{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	c, err := NewCluster(ClusterSpec{
		Nodes: 2, Join: 1, MaxStandby: 1,
		Heartbeat: 50 * time.Millisecond, Liveness: 400 * time.Millisecond,
		JoinTimeout: 30 * time.Second,
		Config:      matrixConfig(), Options: quietOpts(),
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()

	// A fake member takes the join slot through the handshake and then
	// never speaks again — no heartbeats, no ready.
	fake := dialRaw(t, c.Addr())
	fake.send(dist.Frame{Kind: dist.KindHello, From: -1, Seq: ctrlSeqCluster, Payload: encodeHello(joinHello())})
	if conf := fake.read(); conf.Kind != dist.KindConf {
		t.Fatalf("got kind %d, want KindConf", conf.Kind)
	}
	waitJoined(t, c, 2)

	// A real joiner arrives with the cluster full and parks as the
	// standby that will replace the silent fake (runJoiner is the exact
	// code path of `reproworker -join`, here run in-process).
	joinErr := make(chan error, 1)
	go func() { joinErr <- runJoiner(c.Addr(), "", 30*time.Second) }()

	res, err := c.Run(Job{Workers: 1, Source: ValueShards(shardFloats(vals, 2))})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if math.Float64bits(res.Sum) != math.Float64bits(want) {
		t.Errorf("got %016x, want %016x", math.Float64bits(res.Sum), math.Float64bits(want))
	}
	if res.Replacements < 1 {
		t.Errorf("Replacements = %d, want >= 1 (liveness must have evicted the silent member)", res.Replacements)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	select {
	case err := <-joinErr:
		if err != nil {
			t.Errorf("joiner exited with: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("joiner did not exit after cluster close")
	}
}

// TestClusterSpecValidation: every invalid ClusterSpec field is
// rejected at construction with a typed ErrConfig naming the field.
func TestClusterSpecValidation(t *testing.T) {
	valid := func() ClusterSpec {
		return ClusterSpec{Nodes: 2, Options: quietOpts()}
	}
	cases := []struct {
		name string
		mut  func(*ClusterSpec)
		want string
	}{
		{"zero nodes", func(s *ClusterSpec) { s.Nodes = 0 }, "ClusterSpec.Nodes"},
		{"negative nodes", func(s *ClusterSpec) { s.Nodes = -1 }, "ClusterSpec.Nodes"},
		{"negative join", func(s *ClusterSpec) { s.Join = -1 }, "ClusterSpec.Join"},
		{"join exceeds nodes", func(s *ClusterSpec) { s.Join = 3 }, "ClusterSpec.Join"},
		{"negative standby", func(s *ClusterSpec) { s.SpawnStandby = -1 }, "ClusterSpec.SpawnStandby"},
		{"negative max standby", func(s *ClusterSpec) { s.MaxStandby = -1 }, "ClusterSpec.MaxStandby"},
		{"negative join timeout", func(s *ClusterSpec) { s.JoinTimeout = -time.Second }, "ClusterSpec.JoinTimeout"},
		{"negative heartbeat", func(s *ClusterSpec) { s.Heartbeat = -time.Second }, "ClusterSpec.Heartbeat"},
		{"negative liveness", func(s *ClusterSpec) { s.Liveness = -time.Second }, "ClusterSpec.Liveness"},
		{"liveness shorter than two default heartbeats", func(s *ClusterSpec) { s.Liveness = 900 * time.Millisecond }, "ClusterSpec.Heartbeat"},
		{"liveness tighter than two heartbeats", func(s *ClusterSpec) {
			s.Heartbeat, s.Liveness = 600*time.Millisecond, time.Second
		}, "ClusterSpec.Liveness"},
		{"negative die frames", func(s *ClusterSpec) { s.DieAfter = -1 }, "ClusterSpec.DieAfter"},
		{"die node outside cluster", func(s *ClusterSpec) { s.DieNode, s.DieAfter = 5, 1 }, "ClusterSpec.DieNode"},
		{"negative kill frames", func(s *ClusterSpec) { s.Options.KillConnAfter = -1 }, "Options.KillConnAfter"},
		{"bad config", func(s *ClusterSpec) { s.Config.MaxChunkPayload = -1 }, "chunk payload"},
		{"unwritable journal dir", func(s *ClusterSpec) { s.Journal = "/dev/null/journal" }, "ClusterSpec.Journal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mut(&s)
			_, err := NewCluster(s)
			if !errors.Is(err, dist.ErrConfig) {
				t.Fatalf("err = %v, want ErrConfig", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %q does not name %q", err, tc.want)
			}
		})
	}

	// Job-level validation surfaces the same sentinel, naming the field.
	c, err := NewCluster(ClusterSpec{Nodes: 1, JoinTimeout: 30 * time.Second, Options: quietOpts()})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	if _, err := c.Run(Job{Workers: 1}); err == nil || !strings.Contains(err.Error(), "Job.Source") {
		t.Errorf("missing source: %v, want an error naming Job.Source", err)
	}
	if _, err := c.Run(Job{Source: ValueShards(nil)}); !errors.Is(err, dist.ErrNoShards) {
		t.Errorf("empty ValueShards: %v, want ErrNoShards", err)
	}
	if _, err := c.Run(Job{Specs: sumSpecs(), Source: RowShards(nil, nil)}); !errors.Is(err, dist.ErrNoShards) {
		t.Errorf("empty RowShards: %v, want ErrNoShards", err)
	}
	if _, err := c.Run(Job{Workers: -1, Source: ValueShards([][]float64{{1}})}); !errors.Is(err, dist.ErrWorkers) {
		t.Errorf("negative workers: %v, want ErrWorkers", err)
	}
}

// TestWorkerUsage pins the reproworker CLI contract: -help exists and
// exits 0, flag misuse exits 2.
func TestWorkerUsage(t *testing.T) {
	// Silence the usage text during the test run.
	old := os.Stderr
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("devnull: %v", err)
	}
	os.Stderr = null
	defer func() { os.Stderr = old; null.Close() }()

	if code := WorkerMain([]string{"-help"}); code != ExitOK {
		t.Errorf("-help exited %d, want %d", code, ExitOK)
	}
	if code := WorkerMain([]string{"-bogus"}); code != ExitUsage {
		t.Errorf("-bogus exited %d, want %d", code, ExitUsage)
	}
	if code := WorkerMain([]string{}); code != ExitUsage {
		t.Errorf("no flags exited %d, want %d", code, ExitUsage)
	}
	if code := WorkerMain([]string{"-join", "addr", "-id", "3"}); code != ExitUsage {
		t.Errorf("-join with -id exited %d, want %d", code, ExitUsage)
	}
}
