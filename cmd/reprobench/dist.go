package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/dist"
	"repro/internal/dist/proc"
	"repro/internal/obs"
	"repro/internal/rsum"
	"repro/internal/serve"
	"repro/internal/sqlagg"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// runDist — transport sweep (extension; not a paper figure): the
// distributed reduction and GROUP BY shuffle over the in-process
// channel transport vs real TCP sockets on loopback, across cluster
// sizes and topologies. Reports throughput per transport and verifies
// that every cell lands on the same bits — including one cell with a
// hostile fault plan injected into the TCP link.
//
// With -benchjson the experiment switches to bench-cell mode: only the
// machine-readable benchmark cells run (the correctness sweeps are the
// plain `dist` run's job, and CI executes them in separate jobs — the
// trajectory job should measure only what it uploads). With -procs it
// switches to the cross-process equivalence matrix instead (see
// procs.go), which spawns real reproworker processes.
func runDist(cfg config) {
	if cfg.benchJSON != "" {
		runDistBenchJSON(cfg)
		return
	}
	if cfg.procs {
		runDistProcs(cfg)
		return
	}
	vals := workload.Values64(cfg.seed, cfg.n, workload.MixedMag)
	nodesSweep := []int{2, 4, 8, 16}
	if cfg.quick {
		nodesSweep = []int{2, 8}
	}

	transports := []struct {
		name    string
		factory dist.TransportFactory
	}{
		{"chan", dist.ChanTransportFactory},
		{"tcp", dist.TCPTransportFactory},
	}

	var ref uint64
	haveRef := false
	mismatches := 0

	t := bench.NewTable("Transport sweep: Reduce, ns/elem (bits identical across all cells)",
		"nodes", "topology", "chan", "tcp", "tcp/chan")
	for _, nodes := range nodesSweep {
		shards := make([][]float64, nodes)
		for i, v := range vals {
			shards[i%nodes] = append(shards[i%nodes], v)
		}
		for _, topo := range []dist.Topology{dist.Binomial, dist.Chain, dist.Star} {
			var ns [2]float64
			for ti, tr := range transports {
				var sum float64
				dur := bench.Measure(func() {
					var err error
					sum, err = dist.ReduceConfig(shards, 2, topo, dist.Config{NewTransport: tr.factory})
					if err != nil {
						fmt.Fprintf(os.Stderr, "reprobench dist: %v\n", err)
						os.Exit(1)
					}
				})
				ns[ti] = bench.NsPerElem(dur, 1, cfg.n)
				bits := math.Float64bits(sum)
				if !haveRef {
					ref, haveRef = bits, true
				} else if bits != ref {
					mismatches++
				}
			}
			t.AddRow(nodes, topo.String(), ns[0], ns[1], bench.Ratio(ns[1]/ns[0]))
		}
	}
	t.Fprint(os.Stdout)

	// One hostile cell: TCP with drops, dups, reordering, and delays.
	plan := &dist.FaultPlan{Seed: cfg.seed, DropProb: 0.2, DupProb: 0.2, Reorder: true,
		MaxDelay: 200 * time.Microsecond, RetryDelay: 100 * time.Microsecond}
	shards := make([][]float64, 8)
	for i, v := range vals {
		shards[i%8] = append(shards[i%8], v)
	}
	sum, err := dist.ReduceConfig(shards, 2, dist.Binomial, dist.Config{
		NewTransport: dist.TCPTransportFactory, Faults: plan, ChildDeadline: 5 * time.Millisecond})
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprobench dist (faults): %v\n", err)
		os.Exit(1)
	}
	if bits := math.Float64bits(sum); bits != ref {
		mismatches++
	}
	fmt.Printf("tcp+faults (8 nodes, binomial, drop/dup/reorder/delay): %016x\n", math.Float64bits(sum))
	fmt.Printf("bit mismatches across all transport cells: %d\n\n", mismatches)
	if mismatches != 0 {
		fmt.Fprintf(os.Stderr, "reprobench dist: %d transport cells broke bit-reproducibility\n", mismatches)
		os.Exit(1)
	}

	// GROUP BY shuffle across the same transports.
	keys := workload.Keys(cfg.seed+1, cfg.n, 1024)
	tg := bench.NewTable("Transport sweep: AggregateByKey, ns/elem",
		"nodes", "chan", "tcp", "tcp/chan")
	for _, nodes := range nodesSweep {
		lk := make([][]uint32, nodes)
		lv := make([][]float64, nodes)
		for i := range keys {
			d := i % nodes
			lk[d] = append(lk[d], keys[i])
			lv[d] = append(lv[d], vals[i])
		}
		var ns [2]float64
		for ti, tr := range transports {
			dur := bench.Measure(func() {
				if _, err := dist.AggregateByKeyConfig(lk, lv, 2, dist.Config{NewTransport: tr.factory}); err != nil {
					fmt.Fprintf(os.Stderr, "reprobench dist groupby: %v\n", err)
					os.Exit(1)
				}
			})
			ns[ti] = bench.NsPerElem(dur, 1, cfg.n)
		}
		tg.AddRow(nodes, ns[0], ns[1], bench.Ratio(ns[1]/ns[0]))
	}
	tg.Fprint(os.Stdout)

	runDistChunked(cfg, vals)
}

// benchCell is one row of the machine-readable benchmark trajectory:
// an operation at a fixed configuration with its throughput and
// allocation profile. Cells are matched by Name across runs (see
// cmd/benchdiff), so names must stay stable.
type benchCell struct {
	Name        string  `json:"name"`
	Transport   string  `json:"transport,omitempty"`
	Chunks      string  `json:"chunks,omitempty"`
	Aggs        string  `json:"aggs,omitempty"`
	Rows        int     `json:"rows,omitempty"`
	RowsPerSec  float64 `json:"rows_per_sec,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Serving-layer cells only: sustained queries per second
	// and the cache-hit ratio observed during the measurement.
	QPS           float64 `json:"qps,omitempty"`
	CacheHitRatio float64 `json:"cache_hit,omitempty"`
}

// benchReport is the BENCH_dist.json schema. No timestamps: the file is
// committed as a baseline and should not churn without a measurement
// change. cmd/benchdiff reads exactly this schema number.
type benchReport struct {
	Schema    int         `json:"schema"`
	Generator string      `json:"generator"`
	Go        string      `json:"go"`
	Rows      int         `json:"rows"`
	Seed      uint64      `json:"seed"`
	Cells     []benchCell `json:"cells"`
}

// runDistBenchJSON measures the dist data plane's benchmark cells —
// the GROUP BY shuffle per transport (chan vs TCP) in single- and
// multi-chunk regimes for both a single-SUM and a TPC-H Q1-shaped
// multi-aggregate catalog, the reduction per transport, and the
// per-key state-encode micro path — and writes them as JSON. B/op and
// allocs/op come from testing.Benchmark, so the committed baseline
// pins the allocation profile of the hot path, not just its speed.
func runDistBenchJSON(cfg config) {
	rows := cfg.n
	if rows > 1<<17 {
		rows = 1 << 17 // bounded: these cells run under testing.Benchmark's ~1s budget each
	}
	report := benchReport{
		Schema:    6,
		Generator: "reprobench dist",
		Go:        runtime.Version(),
		Rows:      rows,
		Seed:      cfg.seed,
	}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "reprobench dist (benchjson): "+format+"\n", args...)
		os.Exit(1)
	}
	// measure runs op under testing.Benchmark and fails loudly on any
	// error: b.Fatal inside a standalone testing.Benchmark aborts the
	// run silently with a zero result, which would otherwise write
	// all-zero cells into the baseline and pass the nightly diff.
	measure := func(name string, op func() error) testing.BenchmarkResult {
		var benchErr error
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			fail("%s: %v", name, benchErr)
		}
		if res.N == 0 {
			fail("%s: benchmark did not run", name)
		}
		return res
	}
	add := func(name, transport, chunks, aggs string, cellRows int, res testing.BenchmarkResult) {
		cell := benchCell{
			Name:        name,
			Transport:   transport,
			Chunks:      chunks,
			Aggs:        aggs,
			Rows:        cellRows,
			NsPerOp:     float64(res.NsPerOp()),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		if cellRows > 0 && res.NsPerOp() > 0 {
			cell.RowsPerSec = float64(cellRows) * 1e9 / float64(res.NsPerOp())
		}
		report.Cells = append(report.Cells, cell)
	}

	transports := []struct {
		name    string
		factory dist.TransportFactory
	}{
		{"chan", dist.ChanTransportFactory},
		{"tcp", dist.TCPTransportFactory},
	}
	modes := []struct {
		name         string
		distinct     uint32
		chunkPayload int
	}{
		// single: the default 16 MiB chunk payload keeps every
		// (sender, owner) stream one wire frame; multi: a 4 KiB chunk
		// payload at shuffle-heavy cardinality forces multi-chunk
		// streams through the reassembler.
		{"single", 256, 0},
		{"multi", 2048, 4096},
	}
	const nodes = 4
	vals := workload.Values64(cfg.seed+4, rows, workload.MixedMag)
	// The multi-aggregate cells shuffle TPC-H Q1's catalog shape —
	// 4×SUM, 3×AVG, COUNT over five value columns — so the baseline pins
	// the spec-tagged tuple plane, not just the single-SUM frames.
	q1specs := tpch.Q1Specs(2)
	q1cols := make([][]float64, 5)
	for c := range q1cols {
		q1cols[c] = workload.Values64(cfg.seed+5+uint64(c), rows, workload.MixedMag)
	}
	for _, m := range modes {
		keys := workload.Keys(cfg.seed+3, rows, m.distinct)
		lk := make([][]uint32, nodes)
		lv := make([][]float64, nodes)
		lc := make([][][]float64, nodes)
		for d := range lc {
			lc[d] = make([][]float64, len(q1cols))
		}
		for i := range keys {
			d := i % nodes
			lk[d] = append(lk[d], keys[i])
			lv[d] = append(lv[d], vals[i])
			for c := range q1cols {
				lc[d][c] = append(lc[d][c], q1cols[c][i])
			}
		}
		for _, tr := range transports {
			dcfg := dist.Config{NewTransport: tr.factory, MaxChunkPayload: m.chunkPayload}
			name := "groupby/" + tr.name + "/" + m.name
			res := measure(name, func() error {
				_, err := dist.AggregateByKeyConfig(lk, lv, 2, dcfg)
				return err
			})
			add(name, tr.name, m.name, "sum", rows, res)

			name += "/q1agg"
			res = measure(name, func() error {
				_, err := dist.AggregateTuplesConfig(lk, lc, 2, q1specs, dcfg)
				return err
			})
			add(name, tr.name, m.name, "q1", rows, res)
		}
	}

	shards := make([][]float64, nodes)
	for i, v := range vals {
		shards[i%nodes] = append(shards[i%nodes], v)
	}
	for _, tr := range transports {
		dcfg := dist.Config{NewTransport: tr.factory}
		name := "reduce/" + tr.name + "/binomial"
		res := measure(name, func() error {
			_, err := dist.ReduceConfig(shards, 2, dist.Binomial, dcfg)
			return err
		})
		add(name, tr.name, "single", "", rows, res)
	}

	// Micro: the per-key state encode of the shuffle frame build — the
	// in-place AppendBinary fast path against the allocating
	// MarshalBinary it replaced on the hot path.
	const states = 4096
	encStates := make([]rsum.State64, states)
	for i := range encStates {
		encStates[i] = rsum.NewState64(2)
		encStates[i].Add(float64(i) * 1.5)
	}
	encSize := encStates[0].EncodedSize()
	buf := make([]byte, 0, states*encSize)
	res := measure("state_encode/append", func() error {
		buf = buf[:0]
		for j := range encStates {
			var err error
			buf, err = encStates[j].AppendBinary(buf)
			if err != nil {
				return err
			}
		}
		return nil
	})
	add("state_encode/append", "", "", "", states, res)
	res = measure("state_encode/marshal", func() error {
		buf = buf[:0]
		for j := range encStates {
			enc, err := encStates[j].MarshalBinary()
			if err != nil {
				return err
			}
			buf = append(buf, enc...)
		}
		return nil
	})
	add("state_encode/marshal", "", "", "", states, res)

	// Metric record path: the obs hot path that now
	// instruments the shuffle and the serving layer — a counter add, a
	// gauge high-water update, and a histogram observation per record —
	// so the baseline pins its cost and allocation profile (expected
	// zero allocs) alongside the paths it measures.
	mreg := obs.NewRegistry()
	mCnt := mreg.Counter("bench_records_total", "benchmark counter")
	mPeak := mreg.Gauge("bench_peak", "benchmark high-water gauge")
	mLat := mreg.Histogram("bench_latency_seconds", "benchmark histogram", nil)
	const records = 4096
	res = measure("metrics/record", func() error {
		for i := 0; i < records; i++ {
			mCnt.Add(1)
			mPeak.Max(int64(i & 63))
			mLat.Observe(float64(i&1023) * 0.001)
		}
		return nil
	})
	add("metrics/record", "", "", "", records, res)

	// Cluster job dispatch: the control-plane bytes the
	// supervisor encodes into one KindJob frame for one node of a
	// 4-node cluster, for the same logical GROUP BY job expressed two
	// ways. A raw-shard job re-deals and encodes every row it ships —
	// O(rows) per dispatch, paid again for every mid-run replacement —
	// while a declarative synthetic source encodes only the generator
	// spec, a few dozen bytes no matter how large the dataset is.
	dspec := workload.Spec{Rows: rows, Groups: 2048, KeySeed: cfg.seed + 3,
		Cols: []workload.ColSpec{{Seed: cfg.seed + 4, Dist: workload.MixedMag}}}
	dkeys, dcols, derr := dspec.Materialize()
	if derr != nil {
		fail("dispatch dataset: %v", derr)
	}
	dsumSpecs := []sqlagg.AggSpec{{Kind: sqlagg.AggSum, Col: 0}}
	rawJob := proc.Job{Workers: 2, Specs: dsumSpecs,
		Source: proc.RowShards([][]uint32{dkeys}, [][][]float64{dcols})}
	specJob := proc.Job{Workers: 2, Specs: dsumSpecs, Source: proc.SyntheticSource(dspec)}
	res = measure("dispatch/rows", func() error {
		_, err := proc.EncodeJobPayload(rawJob, nodes, 0)
		return err
	})
	add("dispatch/rows", "", "", "sum", rows, res)
	res = measure("dispatch/spec", func() error {
		_, err := proc.EncodeJobPayload(specJob, nodes, 0)
		return err
	})
	add("dispatch/spec", "", "", "sum", rows, res)

	// Supervisor recovery: replaying a journaled control
	// plane — read, CRC-check, and fold every record back into state —
	// which is the fixed cost a crashed supervisor pays before it can
	// re-bind its address and start re-admitting workers. The cell's
	// rows count is journal records, so rows/sec reads as records/sec.
	jdir, jerr := os.MkdirTemp("", "reprobench-journal-")
	if jerr != nil {
		fail("journal dir: %v", jerr)
	}
	defer os.RemoveAll(jdir)
	const journalRecords = 4096
	if _, err := proc.JournalBenchSetup(jdir, journalRecords); err != nil {
		fail("recovery/replay setup: %v", err)
	}
	res = measure("recovery/replay", func() error {
		n, err := proc.JournalBenchReplay(jdir)
		if err != nil {
			return err
		}
		if n != journalRecords {
			return fmt.Errorf("replayed %d records, want %d", n, journalRecords)
		}
		return nil
	})
	add("recovery/replay", "", "", "", journalRecords, res)

	// Serving layer: one GROUP BY answered by a resident
	// query server — cold cache (every op recomputes) vs warm cache
	// (every op a hit) on the local engine, plus a cold cell through the
	// distributed backend. Each cell also records sustained QPS and the
	// observed cache-hit ratio, and every answer across all three cells
	// must be byte-identical.
	sds, sdsErr := serve.SyntheticDataset(cfg.seed+9, rows, 4096, 2, workload.MixedMag, serve.DatasetOptions{})
	if sdsErr != nil {
		fail("serve dataset: %v", sdsErr)
	}
	squery := serve.GroupBy(
		sqlagg.AggSpec{Kind: sqlagg.AggSum, Col: 0},
		sqlagg.AggSpec{Kind: sqlagg.AggAvg, Col: 1},
		sqlagg.AggSpec{Kind: sqlagg.AggCount},
	)
	serveCells := []struct {
		name string
		opts serve.Options
		warm bool
	}{
		{"serve/local/cold", serve.Options{CacheEntries: -1}, false},
		{"serve/local/warm", serve.Options{}, true},
		{"serve/cluster/cold", serve.Options{Distributed: true, CacheEntries: -1}, false},
	}
	var serveRef []byte
	for _, sc := range serveCells {
		srv, err := serve.NewServer(sds, sc.opts)
		if err != nil {
			fail("%s: %v", sc.name, err)
		}
		if sc.warm {
			if _, err := srv.Do(squery); err != nil {
				fail("%s: prewarm: %v", sc.name, err)
			}
		}
		res := measure(sc.name, func() error {
			r, err := srv.Do(squery)
			if err != nil {
				return err
			}
			if serveRef == nil {
				serveRef = r.Bytes
			} else if !bytes.Equal(serveRef, r.Bytes) {
				return fmt.Errorf("result bytes diverged from the reference answer")
			}
			return nil
		})
		st := srv.Stats()
		srv.Close()
		add(sc.name, "", "", "", rows, res)
		cell := &report.Cells[len(report.Cells)-1]
		if res.NsPerOp() > 0 {
			cell.QPS = 1e9 / float64(res.NsPerOp())
		}
		if st.CacheHits+st.CacheMisses > 0 {
			cell.CacheHitRatio = float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail("encode: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(cfg.benchJSON, data, 0o644); err != nil {
		fail("write: %v", err)
	}
	fmt.Printf("benchmark cells written to %s (%d cells)\n\n", cfg.benchJSON, len(report.Cells))
}

// chunkObserver decorates a Transport to record the largest chunk count
// any frame declared, so the sweep can prove its cells genuinely went
// multi-chunk (a sweep that silently stayed single-frame would prove
// nothing about reassembly).
type chunkObserver struct {
	dist.Transport
	mu  sync.Mutex
	max uint32
}

func (o *chunkObserver) Send(f dist.Frame) error {
	if f.Kind != dist.KindResend {
		o.mu.Lock()
		if f.Chunks > o.max {
			o.max = f.Chunks
		}
		o.mu.Unlock()
	}
	return o.Transport.Send(f)
}

// peak reads the recorded maximum under the lock: non-root node
// goroutines keep serving resends (and thus calling Send) after
// AggregateByKeyConfig returns, until Close tears the transport down.
func (o *chunkObserver) peak() uint32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.max
}

// runDistChunked — multi-chunk sweep: the shuffle at a cardinality and
// chunk payload that force every (sender, owner) pair to ≥3 wire
// chunks, across transports and a hostile fault plan, asserting the
// group list is bit-identical to the single-node result. Any mismatch
// — or a cell that failed to produce multi-chunk traffic — exits
// non-zero.
func runDistChunked(cfg config, vals []float64) {
	const distinct = 2048
	const chunkPayload = 4096 // ~60 B per ⟨key, state⟩ pair → ≥7 chunks per pair at 4 nodes
	keys := workload.Keys(cfg.seed+2, cfg.n, distinct)

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "reprobench dist (chunked): "+format+"\n", args...)
		os.Exit(1)
	}

	// Single-node reference: same rows, one shard, default transport.
	ref, err := dist.AggregateByKeyConfig([][]uint32{keys}, [][]float64{vals}, 2, dist.Config{})
	if err != nil {
		fail("reference: %v", err)
	}

	plans := []struct {
		name string
		plan *dist.FaultPlan
	}{
		{"none", nil},
		{"chaos", &dist.FaultPlan{Seed: cfg.seed, DropProb: 0.2, DupProb: 0.2, Reorder: true,
			MaxDelay: 200 * time.Microsecond, RetryDelay: 100 * time.Microsecond}},
	}
	transports := []struct {
		name    string
		factory dist.TransportFactory
	}{
		{"chan", dist.ChanTransportFactory},
		{"tcp", dist.TCPTransportFactory},
	}

	t := bench.NewTable("Multi-chunk shuffle sweep: AggregateByKey, ns/elem (bits identical to single-node)",
		"nodes", "faults", "chan", "tcp", "max chunks")
	for _, nodes := range []int{2, 4} {
		lk := make([][]uint32, nodes)
		lv := make([][]float64, nodes)
		for i := range keys {
			d := i % nodes
			lk[d] = append(lk[d], keys[i])
			lv[d] = append(lv[d], vals[i])
		}
		for _, p := range plans {
			var ns [2]float64
			var maxChunks uint32
			for ti, tr := range transports {
				co := &chunkObserver{}
				factory := func(n int) (dist.Transport, error) {
					inner, err := tr.factory(n)
					if err != nil {
						return nil, err
					}
					co.Transport = inner
					return co, nil
				}
				dcfg := dist.Config{NewTransport: factory, Faults: p.plan,
					MaxChunkPayload: chunkPayload, ChildDeadline: 5 * time.Millisecond, MaxResend: -1}
				var out []dist.Group
				dur := bench.Measure(func() {
					var err error
					out, err = dist.AggregateByKeyConfig(lk, lv, 2, dcfg)
					if err != nil {
						fail("%d nodes, %s, %s: %v", nodes, p.name, tr.name, err)
					}
				})
				ns[ti] = bench.NsPerElem(dur, 1, cfg.n)
				if len(out) != len(ref) {
					fail("%d nodes, %s, %s: %d groups, want %d", nodes, p.name, tr.name, len(out), len(ref))
				}
				for i := range out {
					if out[i].Key != ref[i].Key || math.Float64bits(out[i].Sum) != math.Float64bits(ref[i].Sum) {
						fail("%d nodes, %s, %s: group %d broke bit-reproducibility", nodes, p.name, tr.name, out[i].Key)
					}
				}
				peak := co.peak()
				if peak < 3 {
					fail("%d nodes, %s, %s: peaked at %d chunks per message, want ≥3 — sweep no longer exercises reassembly", nodes, p.name, tr.name, peak)
				}
				if peak > maxChunks {
					maxChunks = peak
				}
			}
			t.AddRow(nodes, p.name, ns[0], ns[1], int(maxChunks))
		}
	}
	t.Fprint(os.Stdout)
	fmt.Printf("multi-chunk sweep: all cells bit-identical to the single-node reference\n\n")
}
