package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
	"unsafe"

	"repro"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dist/proc"
	"repro/internal/engine"
	"repro/internal/hashagg"
	"repro/internal/partition"
	"repro/internal/rsum"
	"repro/internal/sqlagg"
	"repro/internal/tpch"
)

// The layer probes: every layer of the repo, timed from outside by calling
// its public functions on the probed workload's own rows. One suite runs on
// every workload, so a layer's number is comparable across workloads and a
// workload's ledger covers every layer. The kernel and operator layers see
// all rows; the layers above them (sqlagg, engine, dist, proc, serve) see the
// first upperRows, which is every row of the three workloads that exercise
// them and keeps a traced run of the 2^22-row workloads inside its budget.
const upperRows = 1 << 20

// prober times calls under spans and collects the per-layer metrics.
type prober struct {
	tr     *tracer
	root   int           // parent of every probe span
	budget time.Duration // soft cap on the repetitions of one timed call
	reps   int           // repetitions the last timed call made
	m      map[string]float64
	err    error // first failure; later calls are skipped
}

// time calls fn under a span named name up to seven times — twice at least,
// unless the first call alone takes over a second — stopping once budget is
// used, and returns the fastest call's duration. It collects garbage first,
// so that no probe pays for what the one before it left behind.
func (p *prober) time(name string, fn func() error) time.Duration {
	if p.err != nil {
		return 0
	}
	runtime.GC()
	var ds []time.Duration
	var used time.Duration
	for rep := 0; rep < 7 && (rep == 0 || used < p.budget || (rep == 1 && used < time.Second)); rep++ {
		id := p.tr.start(name, p.root, rep)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		p.tr.end(id)
		if err != nil {
			p.err = fmt.Errorf("%s: %w", name, err)
			return 0
		}
		ds = append(ds, d)
		used += d
	}
	p.reps = len(ds)
	return slices.Min(ds)
}

func per(d time.Duration, n int) float64 { return float64(d) / float64(max(n, 1)) }

var sink float64 // keeps probe results alive

// probeLayers runs the whole suite on in and returns every per-layer metric
// except the bench.* and obs.driver_* ones, which come from the workload's
// own traced stretch.
func probeLayers(in probeInput, tr *tracer, seconds float64) (map[string]float64, error) {
	p := &prober{tr: tr, m: make(map[string]float64)}
	p.root = tr.start("probe", 0, 0)
	// About 45 timed calls share three quarters of the run length.
	p.budget = time.Duration(seconds * 0.75 / 45 * float64(time.Second))
	up := in.prefix(upperRows)

	depth := agg.ThresholdsReproBuffered.Depth(in.groups)
	fanout := 1
	for i := 0; i < depth; i++ {
		fanout *= 256
	}
	bsz := agg.BufferSize(in.groups, fanout, 8)

	p.rsumKernel(in.cols[0])
	p.rsumStates(up)
	p.coreAdd(in.cols[0], bsz)
	p.partitioning(in)
	p.hashTables(in)
	p.operators(in, depth, bsz)
	p.sqlaggTuples(up)
	p.engineSums(up)
	tcpOp := p.distPlane(up)
	p.procCluster(up, tcpOp)
	p.serveLayer(up, max(time.Duration(seconds/4*float64(time.Second)), 50*time.Millisecond))
	tr.end(p.root)
	return p.m, p.err
}

// --- rsum -------------------------------------------------------------------

func (p *prober) rsumKernel(vals []float64) {
	n := len(vals)
	plain := p.time("rsum.plain", func() error {
		s := 0.0
		for _, v := range vals {
			s += v
		}
		sink = s
		return nil
	})
	p.m["rsum.plain_ns_per_elem"] = per(plain, n)

	for _, lv := range []struct {
		prefix string
		levels int
	}{{"rsum.", levels}, {"rsum.l4_", 4}} {
		st := rsum.NewState64(lv.levels)
		for _, k := range []struct {
			name string
			fn   func()
		}{
			{"add", func() {
				for _, v := range vals {
					st.Add(v)
				}
			}},
			{"addslice", func() { st.AddSlice(vals) }},
			{"addslicevec", func() { st.AddSliceVec(vals) }},
		} {
			d := p.time(lv.prefix+k.name, func() error {
				st.Reset(lv.levels)
				k.fn()
				sink = st.Value()
				return nil
			})
			p.m[lv.prefix+k.name+"_ns_per_elem"] = per(d, n)
			if lv.levels == levels && k.name == "addslicevec" {
				p.m["rsum.kernel_slowdown"] = float64(d) / float64(max(plain, 1))
			}
		}
	}

	vals32 := make([]float32, n)
	for i, v := range vals {
		vals32[i] = float32(v)
	}
	st := rsum.NewState32(levels)
	for _, k := range []struct {
		name string
		fn   func()
	}{
		{"add32", func() {
			for _, v := range vals32 {
				st.Add(v)
			}
		}},
		{"addslice32", func() { st.AddSlice(vals32) }},
		{"addslicevec32", func() { st.AddSliceVec(vals32) }},
	} {
		d := p.time("rsum."+k.name, func() error {
			st.Reset(levels)
			k.fn()
			sink = float64(st.Value())
			return nil
		})
		p.m["rsum."+k.name+"_ns_per_elem"] = per(d, n)
	}
}

// stateOps is how many state operations one timed call of the state probes
// performs, whatever the number of populated states.
const stateOps = 1 << 16

// rsumStates times Merge, AppendBinary and MergeBinary over populated
// states: one per key of the input, at most 2^16.
func (p *prober) rsumStates(in probeInput) {
	ns := min(in.groups, 1<<16)
	states := make([]rsum.State64, ns)
	for i := range states {
		states[i] = rsum.NewState64(levels)
	}
	for i, k := range in.keys {
		states[int(k)%ns].Add(in.cols[0][i])
	}
	dst := append([]rsum.State64(nil), states...)

	d := p.time("rsum.merge", func() error {
		for i := 0; i < stateOps; i++ {
			dst[i%ns].Merge(&states[(i+1)%ns])
		}
		return nil
	})
	p.m["rsum.merge_ns"] = per(d, stateOps)

	var buf []byte
	d = p.time("rsum.appendbinary", func() error {
		for i := 0; i < stateOps; i++ {
			var err error
			if buf, err = states[i%ns].AppendBinary(buf[:0]); err != nil {
				return err
			}
		}
		return nil
	})
	p.m["rsum.appendbinary_ns"] = per(d, stateOps)

	enc := make([][]byte, ns)
	for i := range states {
		enc[i], _ = states[i].AppendBinary(nil)
	}
	d = p.time("rsum.mergebinary", func() error {
		for i := 0; i < stateOps; i++ {
			if err := dst[i%ns].MergeBinary(enc[(i+1)%ns]); err != nil {
				return err
			}
		}
		return nil
	})
	p.m["rsum.mergebinary_ns"] = per(d, stateOps)
}

// --- core -------------------------------------------------------------------

func (p *prober) coreAdd(vals []float64, bsz int) {
	d := p.time("core.buffered_add", func() error {
		b := core.NewBuffered64(levels, bsz)
		for _, v := range vals {
			b.Add(v)
		}
		sink = b.Value()
		return nil
	})
	p.m["core.buffered_add_ns_per_elem"] = per(d, len(vals))
	d = p.time("core.sum64_add", func() error {
		s := core.NewSum64(levels)
		for _, v := range vals {
			s.Add(v)
		}
		sink = s.Value()
		return nil
	})
	p.m["core.sum64_add_ns_per_elem"] = per(d, len(vals))
}

// --- partition --------------------------------------------------------------

func (p *prober) partitioning(in probeInput) {
	workers := runtime.GOMAXPROCS(0)
	d := p.time("partition.do", func() error {
		out := partition.Do(in.keys, in.cols[0], 0, 256, workers)
		sink = float64(out.NumPartitions())
		return nil
	})
	p.m["partition.do_ns_per_row"] = per(d, len(in.keys))
	d = p.time("partition.dobuffered", func() error {
		out := partition.DoBuffered(in.keys, in.cols[0], 0, 256, workers)
		sink = float64(out.NumPartitions())
		return nil
	})
	p.m["partition.dobuffered_ns_per_row"] = per(d, len(in.keys))
}

// --- hashagg ----------------------------------------------------------------

// hashTables times one thread aggregating every row into one table, at the
// summation-buffer size an unpartitioned table of that many groups gets.
func (p *prober) hashTables(in probeInput) {
	vals := in.cols[0]
	bsz := agg.BufferSize(in.groups, 1, 8)
	d := p.time("hashagg.upsert_f64", func() error {
		t := hashagg.New[agg.F64](in.groups, hashagg.Identity, func() agg.F64 { return 0 })
		hashagg.Aggregate[float64, agg.F64](t, in.keys, vals)
		sink = float64(t.Len())
		return nil
	})
	p.m["hashagg.upsert_ns_per_row_f64"] = per(d, len(in.keys))

	var slots, filled int
	d = p.time("hashagg.upsert_repro", func() error {
		t := hashagg.New[core.Buffered64](in.groups, hashagg.Identity,
			func() core.Buffered64 { return core.NewBuffered64(levels, bsz) })
		hashagg.Aggregate[float64, core.Buffered64](t, in.keys, vals)
		slots, filled = t.Cap(), t.Len()
		return nil
	})
	p.m["hashagg.upsert_ns_per_row_repro"] = per(d, len(in.keys))
	// Computed, not measured: key, used and stale flags and the payload
	// struct per slot, plus one summation buffer per group present.
	slotBytes := 4 + 1 + 1 + int(unsafe.Sizeof(core.Buffered64{}))
	p.m["hashagg.table_mb"] = float64(slots*slotBytes+filled*bsz*8) / (1 << 20)
}

// --- agg --------------------------------------------------------------------

func (p *prober) operators(in probeInput, depth, bsz int) {
	vals := in.cols[0]
	newBuf := func() core.Buffered64 { return core.NewBuffered64(levels, bsz) }
	opt := agg.Options{Depth: depth, GroupHint: in.groups, Hash: hashagg.Identity}

	groupsOut := 0
	op := p.time("agg.op", func() error {
		groupsOut = len(agg.PartitionAndAggregate[float64, core.Buffered64](in.keys, vals, newBuf, opt))
		return nil
	})
	facade := p.time("agg.facade", func() error {
		sink = float64(len(repro.GroupBySum(in.keys, vals, &repro.GroupByOptions{Groups: in.groups})))
		return nil
	})
	floatOpt := opt
	floatOpt.Depth = agg.ThresholdsBuiltin.Depth(in.groups)
	floatOp := p.time("agg.float_op", func() error {
		sink = float64(len(agg.PartitionAndAggregate[float64, agg.F64](in.keys, vals, func() agg.F64 { return 0 }, floatOpt)))
		return nil
	})

	// The repo's two other strategies, on unpartitioned-size buffers: the
	// ledger says which wins where.
	flatBsz := agg.BufferSize(in.groups, 1, 8)
	newFlat := func() core.Buffered64 { return core.NewBuffered64(levels, flatBsz) }
	shared := p.time("agg.shared_op", func() error {
		sink = float64(len(agg.SharedAggregate[float64, core.Buffered64](in.keys, vals, newFlat, opt)))
		return nil
	})
	adaptive := p.time("agg.adaptive_op", func() error {
		sink = float64(len(agg.AdaptiveAggregate[float64, core.Buffered64](in.keys, vals, newFlat,
			agg.AdaptiveOptions{Hash: hashagg.Identity})))
		return nil
	})

	p.m["agg.op_ms"] = ms(op)
	p.m["agg.float_op_ms"] = ms(floatOp)
	p.m["agg.finalize_ms"] = ms(facade - op) // Value() per group + sort
	p.m["agg.shared_op_ms"] = ms(shared)
	p.m["agg.adaptive_op_ms"] = ms(adaptive)
	p.m["agg.depth"] = float64(depth)
	p.m["agg.bsz"] = float64(bsz)
	p.m["agg.groups_out"] = float64(groupsOut)
}

// --- sqlagg -----------------------------------------------------------------

func (p *prober) sqlaggTuples(in probeInput) {
	d := p.time("sqlagg.add", func() error {
		states, err := sqlagg.NewStates(in.specs)
		if err != nil {
			return err
		}
		for i := range in.keys {
			for si, sp := range in.specs {
				states[si].Add(in.cols[sp.Col][i])
			}
		}
		sink = states[0].Value()
		return nil
	})
	p.m["sqlagg.add_ns_per_row"] = per(d, len(in.keys))

	// Populated tuples: one per key of the input, at most 2^16.
	nt := min(in.groups, 1<<16)
	tuples := make([][]sqlagg.AggState, nt)
	for t := range tuples {
		var err error
		if tuples[t], err = sqlagg.NewStates(in.specs); err != nil {
			p.err = err
			return
		}
	}
	for i, k := range in.keys {
		for si, sp := range in.specs {
			tuples[int(k)%nt][si].Add(in.cols[sp.Col][i])
		}
	}
	size, err := sqlagg.TupleSize(in.specs)
	if err != nil {
		p.err = err
		return
	}
	p.m["sqlagg.tuple_bytes"] = float64(size)

	enc := make([][]byte, nt)
	d = p.time("sqlagg.encode", func() error {
		for i := 0; i < stateOps; i++ {
			buf := enc[i%nt][:0]
			for _, st := range tuples[i%nt] {
				var err error
				if buf, err = st.AppendBinary(buf); err != nil {
					return err
				}
			}
			enc[i%nt] = buf
		}
		return nil
	})
	p.m["sqlagg.encode_ns_per_tuple"] = per(d, stateOps)
	d = p.time("sqlagg.merge", func() error {
		for i := 0; i < stateOps; i++ {
			src := enc[(i+1)%nt]
			for _, st := range tuples[i%nt] {
				w := st.EncodedSize()
				if err := st.MergeBinary(src[:w]); err != nil {
					return err
				}
				src = src[w:]
			}
		}
		return nil
	})
	p.m["sqlagg.merge_ns_per_tuple"] = per(d, stateOps)
}

// --- engine -----------------------------------------------------------------

func (p *prober) engineSums(in probeInput) {
	for _, k := range []struct {
		name string
		kind engine.SumKind
	}{{"plain", engine.SumPlain}, {"repro", engine.SumRepro}, {"buffered", engine.SumReproBuffered}} {
		d := p.time("engine.groupedsum_"+k.name, func() error {
			out, err := engine.GroupedSum(in.keys, in.groups, in.cols[0], engine.GroupByConfig{Kind: k.kind, Levels: levels}, nil)
			if err == nil {
				sink = out[0]
			}
			return err
		})
		p.m["engine.groupedsum_"+k.name+"_ns_per_row"] = per(d, len(in.keys))
	}

	// The paper's Tab. IV shape: whole-query Q1, scan included. dist_q1
	// probes its own lineitem table; the others a 2^18-row one from the seed.
	tbl := in.lineitem
	if tbl == nil {
		tbl = tpch.GenLineitemRows(min(len(in.keys), 1<<18), in.seed)
	}
	var q1 [2]time.Duration
	for i, kind := range []engine.SumKind{engine.SumPlain, engine.SumReproBuffered} {
		q1[i] = p.time("engine.q1_"+kind.String(), func() error {
			_, _, err := tpch.RunQ1(tbl, engine.GroupByConfig{Kind: kind, Levels: levels})
			return err
		})
	}
	p.m["engine.q1_e2e_slowdown"] = float64(q1[1]) / float64(max(q1[0], 1))
}

// --- dist -------------------------------------------------------------------

// distPlane times the in-process tuple plane per transport on a 2-way deal
// of in and returns the TCP op's median, which proc.overhead_ms subtracts.
func (p *prober) distPlane(in probeInput) time.Duration {
	shardKeys, shardCols := tpch.ShardQ1Input(in.keys, in.cols, clusterNodes)
	var groups []dist.TupleGroup
	run := func(factory dist.TransportFactory) func() error {
		return func() (err error) {
			groups, err = dist.AggregateTuplesConfig(shardKeys, shardCols, 1, in.specs, dist.Config{NewTransport: factory})
			return err
		}
	}
	chanOp := p.time("dist.chan_op", run(dist.ChanTransportFactory))

	// Counts at the same boundaries as the TCP op's spans: wire and
	// allocation deltas of the whole process over all its repetitions.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wire := dist.ReadWireStats()
	tcpOp := p.time("dist.tcp_op", run(dist.TCPTransportFactory))
	wire = dist.ReadWireStats().Sub(wire)
	runtime.ReadMemStats(&after)
	reps := float64(max(p.reps, 1))

	p.m["dist.tcp_op_ms"] = ms(tcpOp)
	p.m["dist.chan_op_ms"] = ms(chanOp)
	p.m["dist.wire_bytes_per_op"] = float64(wire.BytesOut) / reps
	p.m["dist.frames_per_op"] = float64(wire.FramesOut) / reps
	p.m["dist.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / reps
	p.m["dist.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / reps / (1 << 20)

	var enc []byte
	d := p.time("dist.encode_groups", func() error {
		enc = dist.EncodeTupleGroups(groups, len(in.specs))
		return nil
	})
	p.m["dist.encode_groups_ms"] = ms(d)
	d = p.time("dist.decode_groups", func() error {
		_, err := dist.DecodeTupleGroups(enc, len(in.specs))
		return err
	})
	p.m["dist.decode_groups_ms"] = ms(d)
	return tcpOp
}

// --- proc -------------------------------------------------------------------

func (p *prober) procCluster(in probeInput, tcpOp time.Duration) {
	if p.err != nil {
		return
	}
	shardKeys, shardCols := tpch.ShardQ1Input(in.keys, in.cols, clusterNodes)
	job := repro.Job{Workers: 1, Specs: in.specs, Source: repro.RowShards(shardKeys, shardCols)}

	dispatch := 0
	d := p.time("proc.encode_payload", func() error {
		dispatch = 0
		for id := 0; id < clusterNodes; id++ {
			b, err := proc.EncodeJobPayload(job, clusterNodes, id)
			if err != nil {
				return err
			}
			dispatch += len(b)
		}
		return nil
	})
	p.m["proc.encode_payload_ms"] = ms(d)
	p.m["proc.dispatch_bytes"] = float64(dispatch)

	id := p.tr.start("proc.cluster_start", p.root, 0)
	cluster, err := repro.NewCluster(repro.ClusterSpec{Nodes: clusterNodes})
	if err == nil {
		defer cluster.Close()
		_, err = cluster.Run(job)
	}
	p.m["proc.cluster_start_ms"] = ms(p.tr.end(id))
	if err != nil {
		p.err = fmt.Errorf("proc.cluster_start: %w", err)
		return
	}
	jobOp := p.time("proc.job", func() error {
		_, err := cluster.Run(job)
		return err
	})
	p.m["proc.job_ms"] = ms(jobOp)
	p.m["proc.overhead_ms"] = ms(jobOp - tcpOp)
	p.m["proc.worker_peak_rss_mb"] = childPeakRSSMB()
	p.m["proc.replacements"] = float64(cluster.Stats().Replaced)
}

// childPeakRSSMB is the largest VmHWM among this process's live children —
// the cluster's worker processes, read from outside through /proc.
func childPeakRSSMB() float64 {
	peak := 0.0
	for _, p := range listProcs() {
		if p.ppid == os.Getpid() {
			peak = max(peak, peakRSSMB(p.pid))
		}
	}
	return peak
}

// --- serve and obs ----------------------------------------------------------

// serveSpans maps the span names the server's obs trace records onto the
// metrics they feed; the first three are reported in µs, execute in ms.
var serveSpans = map[string]string{
	"admission":  "serve.admission_us",
	"cache":      "serve.cache_lookup_us",
	"queue":      "serve.queue_wait_us",
	"execute":    "serve.execute_ms",
	"cache-fill": "serve.cache_fill_us",
}

func (p *prober) serveLayer(in probeInput, loop time.Duration) {
	if p.err != nil {
		return
	}
	rig, err := newServeRig(in, 256)
	if err != nil {
		p.err = fmt.Errorf("serve: %w", err)
		return
	}
	defer rig.close()

	// One caller, every hot query once as a miss and once as a hit, the
	// server's obs trace on: span durations, allocations per query, and
	// whether the spans of a miss add up to what the driver measured.
	spans := map[string][]float64{}
	var closure, missAllocs, hitAllocs []float64
	var ms1, ms2 runtime.MemStats
	nq := rig.mix.hot()
	for pass := 0; pass < 2; pass++ {
		for idx := 0; idx < nq; idx++ {
			q := rig.mix.query(idx)
			runtime.ReadMemStats(&ms1)
			id := p.tr.start("serve.do", p.root, idx)
			res, err := rig.srv.Do(q)
			wall := p.tr.end(id)
			runtime.ReadMemStats(&ms2)
			if err == nil {
				err = rig.verify(idx, res.Bytes)
			}
			if err == nil && res.CacheHit != (pass == 1) {
				err = fmt.Errorf("query %d pass %d: CacheHit = %v", idx, pass, res.CacheHit)
			}
			if err != nil {
				p.err = fmt.Errorf("serve.do: %w", err)
				return
			}
			allocs := float64(ms2.Mallocs - ms1.Mallocs)
			sum := time.Duration(0)
			for _, sp := range rig.srv.Trace(res.TraceID).Spans() {
				sum += sp.Dur
				p.tr.child(id, "serve."+sp.Name, sp.Start, sp.Dur)
				if pass == 0 || sp.Name == "admission" || sp.Name == "cache" {
					spans[sp.Name] = append(spans[sp.Name], float64(sp.Dur))
				}
			}
			if pass == 0 {
				missAllocs = append(missAllocs, allocs)
				closure = append(closure, float64(sum)/float64(max(wall, 1)))
			} else {
				hitAllocs = append(hitAllocs, allocs)
			}
		}
	}
	for name, metric := range serveSpans {
		if len(spans[name]) == 0 {
			p.err = fmt.Errorf("serve: no %q span in the server's traces", name)
			return
		}
		unit := float64(time.Microsecond)
		if strings.HasSuffix(metric, "_ms") {
			unit = float64(time.Millisecond)
		}
		p.m[metric] = median(spans[name]) / unit
	}
	p.m["serve.trace_closure"] = median(closure)
	p.m["serve.allocs_per_miss"] = median(missAllocs)
	p.m["serve.allocs_per_hit"] = median(hitAllocs)

	// The closed loop over a filled hot set, obs traces on and then off. The
	// first runs on the cache the pass above left; the second on a fresh
	// server whose hot set is executed once first, as serve_mix's set-up does.
	var hitMs, missMs [2]float64 // fastest hit and fastest miss, traces on and off
	hitShare := 0.0
	for i, traceEntries := range []int{256, -1} {
		if i > 0 {
			if err := rig.restart(traceEntries); err == nil {
				for idx := 0; idx < nq && err == nil; idx++ {
					_, err = rig.srv.Do(rig.mix.query(idx))
				}
			}
			if err != nil {
				p.err = fmt.Errorf("serve: %w", err)
				return
			}
		}
		s, err := rig.loop(loop, nil)
		if err != nil {
			p.err = fmt.Errorf("serve: %w", err)
			return
		}
		if s.failed > 0 {
			p.err = fmt.Errorf("serve: %d of %d queries failed", s.failed, s.ops)
			return
		}
		hitMs[i], missMs[i] = fastestMs(s.hits), fastestMs(s.exec)
		if traceEntries > 0 {
			continue
		}
		st := rig.srv.Stats()
		hitShare = float64(len(s.hits)) / float64(s.ops)
		p.m["serve.queries_per_s"] = float64(s.ops) * float64(s.clients) / s.busy.Seconds() // as it ran
		p.m["serve.cache_hit_ratio"] = float64(st.CacheHits) / float64(max(st.Served, 1))
		p.m["serve.hit_p50_ms"] = median(durationsMs(s.hits))
		p.m["serve.hit_tail_ms"], p.m["serve.hit_tail_pct"] = tail(durationsMs(s.hits))
		p.m["serve.miss_p50_ms"] = median(durationsMs(s.exec))
		p.m["serve.miss_tail_ms"], p.m["serve.miss_tail_pct"] = tail(durationsMs(s.exec))
		p.m["serve.rejected"] = float64(rig.rejected())
	}
	// What the server's traces cost a query: on the hit path alone, where a
	// fastest-of-thousands resolves it, and over the untraced loop's mix of
	// hits and misses, where the misses' noise is most of the number.
	mixMs := func(i int) float64 { return hitShare*hitMs[i] + (1-hitShare)*missMs[i] }
	p.m["obs.trace_hit_overhead_pct"] = (hitMs[0]/hitMs[1] - 1) * 100
	p.m["obs.trace_overhead_pct"] = (mixMs(0)/mixMs(1) - 1) * 100
}
