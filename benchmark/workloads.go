package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/agg"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/hashagg"
	"repro/internal/obs"
	"repro/internal/sqlagg"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// levels is the summation level count every workload runs at.
const levels = repro.DefaultLevels

// A workloadDef names one set of inputs and says how to set it up. scale
// divides the row counts (1 for a real run, 64 for -quick).
type workloadDef struct {
	name  string
	why   string
	setup func(seed uint64, scale int) (*instance, error)
}

var workloads = []workloadDef{
	{"groupby_few", "2^22 rows into 2^8 groups: summation buffers always fill, so the vectorised rsum kernel does most of the work (low-group end of Fig. 9-12)", setupGroupBy(1 << 8)},
	{"groupby_mid", "2^22 rows into 2^16 groups: buffered table spills L2 and bsz drops to 2, so hash probing and buffer flushing dominate, just under the depth crossover", setupGroupBy(1 << 16)},
	{"groupby_many", "2^22 rows into 2^20 groups: depth-1 radix partitioning dominates both the reproducible and the plain operator; guards the far side of the crossover", setupGroupBy(1 << 20)},
	{"dist_q1", "TPC-H Q1 catalog (8 aggregates) over 2^20 lineitem rows into 4 groups on 2 in-process TCP nodes: per-row sqlagg state updates dominate, shuffle is negligible", setupDistQ1},
	{"cluster_shuffle", "Q1 catalog over 2^20 rows into 2^16 groups on a 2-process cluster: tuple encode, chunked socket shuffle, merge, gather and proc dispatch dominate", setupClusterShuffle},
	{"serve_mix", "query server, closed loop of GOMAXPROCS clients, 7/8 cache hits and 1/8 executed GROUP BYs over 2^19 rows: the only workload that sees cache, admission and obs cost", setupServeMix},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// probeInput is what a workload hands the layer probes: its own keys and
// value columns, the key domain (every key < groups) and the aggregate
// catalog its operation computes.
type probeInput struct {
	seed     uint64
	keys     []uint32
	cols     [][]float64
	groups   int
	specs    []sqlagg.AggSpec
	lineitem *engine.Table // dist_q1's table; nil elsewhere
}

// prefix returns the first n rows (all of them when there are fewer).
func (in probeInput) prefix(n int) probeInput {
	if n >= len(in.keys) {
		return in
	}
	out := in
	out.keys = in.keys[:n]
	out.cols = make([][]float64, len(in.cols))
	for c := range in.cols {
		out.cols[c] = in.cols[c][:n]
	}
	return out
}

// sample is what one measured stretch of a workload produced.
type sample struct {
	exec    []time.Duration // executed reproducible ops (serve_mix: cache misses)
	base    []time.Duration // plain-float64 baseline ops of the same stretch
	hits    []time.Duration // serve_mix only: queries the result cache answered
	busy    time.Duration   // Σ latency of every reproducible op, hits included
	ops     int             // reproducible ops attempted
	failed  int             // of those, returned an error or differed from the reference
	clients int             // concurrent closed-loop callers
}

// instance is one set-up workload.
type instance struct {
	rows    int    // input rows one reproducible op aggregates
	digest  string // obs.DigestOf the reference result
	input   probeInput
	measure func(d time.Duration, tr *tracer) (*sample, error)
	close   func()
}

// minPairs is the fewest (baseline, reproducible) pairs a stretch times,
// however short it is asked to be.
const minPairs = 3

// pairOps is the closed loop of one caller the five batch workloads share:
// alternating (baseline op, reproducible op) pairs, alternating which goes
// first, every reproducible result compared with the reference.
type pairOps struct {
	repro func() error // timed: the reproducible operation; keeps its result
	check func() error // untimed: the kept result's bits against the reference
	base  func() error // timed: the plain-float64 answer to the same question
}

func (p pairOps) measure(d time.Duration, tr *tracer) (*sample, error) {
	s := &sample{clients: 1}
	deadline := time.Now().Add(d)
	for i := 0; i < minPairs || time.Now().Before(deadline); i++ {
		for half := 0; half < 2; half++ {
			if (half == 0) == (i%2 == 0) {
				id := tr.start("op.base", 0, i)
				t0 := time.Now()
				err := p.base()
				s.base = append(s.base, time.Since(t0))
				tr.end(id)
				if err != nil {
					return nil, fmt.Errorf("baseline op %d: %w", i, err)
				}
				continue
			}
			id := tr.start("op.repro", 0, i)
			t0 := time.Now()
			err := p.repro()
			lat := time.Since(t0)
			tr.end(id)
			s.ops++
			s.busy += lat
			s.exec = append(s.exec, lat)
			if err == nil {
				err = p.check()
			}
			if err != nil {
				if s.failed == 0 {
					fmt.Fprintf(os.Stderr, "benchmark: op %d failed: %v\n", i, err)
				}
				s.failed++
			}
		}
	}
	return s, nil
}

// warm runs one untimed pair, so that set-up ends with caches filled and
// lazy initialisation done, and fails if the reproducible op already does.
func (p pairOps) warm() error {
	if err := p.base(); err != nil {
		return err
	}
	if err := p.repro(); err != nil {
		return err
	}
	return p.check()
}

// --- groupby_few / groupby_mid / groupby_many -------------------------------

func setupGroupBy(groups int) func(uint64, int) (*instance, error) {
	return func(seed uint64, scale int) (*instance, error) {
		n := (1 << 22) / scale
		keys := workload.Keys(seed, n, uint32(groups))
		vals := workload.Values64(seed+1, n, workload.MixedMag)

		// Reference through a differently shaped execution: one worker
		// over a permuted copy of the rows.
		pk, pv := append([]uint32(nil), keys...), append([]float64(nil), vals...)
		workload.ShufflePairs(seed+2, pk, pv)
		ref := repro.GroupBySum(pk, pv, &repro.GroupByOptions{Groups: groups, Workers: 1})

		opts := &repro.GroupByOptions{Groups: groups}
		baseOpt := agg.Options{
			Depth:     agg.ThresholdsBuiltin.Depth(groups),
			GroupHint: groups,
			Hash:      hashagg.Identity,
		}
		var got []repro.Group
		ops := pairOps{
			repro: func() error { got = repro.GroupBySum(keys, vals, opts); return nil },
			check: func() error { return equalGroups(got, ref) },
			base: func() error {
				entries := agg.PartitionAndAggregate[float64, agg.F64](keys, vals, func() agg.F64 { return 0 }, baseOpt)
				out := make([]repro.Group, len(entries))
				for i := range entries {
					out[i] = repro.Group{Key: entries[i].Key, Sum: entries[i].Agg.Value()}
				}
				sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
				if len(out) != len(ref) {
					return fmt.Errorf("plain operator found %d groups, reference has %d", len(out), len(ref))
				}
				return nil
			},
		}
		if err := ops.warm(); err != nil {
			return nil, err
		}
		return &instance{
			rows:   n,
			digest: digestGroups(ref),
			input: probeInput{seed: seed, keys: keys, cols: [][]float64{vals}, groups: groups,
				specs: []sqlagg.AggSpec{{Kind: sqlagg.AggSum, Col: 0}}},
			measure: ops.measure,
			close:   func() {},
		}, nil
	}
}

func equalGroups(got, want []repro.Group) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || math.Float64bits(got[i].Sum) != math.Float64bits(want[i].Sum) {
			return fmt.Errorf("group %d: key %d sum %016x, reference key %d sum %016x",
				i, got[i].Key, math.Float64bits(got[i].Sum), want[i].Key, math.Float64bits(want[i].Sum))
		}
	}
	return nil
}

func digestGroups(gs []repro.Group) string {
	buf := make([]byte, 0, 12*len(gs))
	for _, g := range gs {
		buf = binary.LittleEndian.AppendUint32(buf, g.Key)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.Sum))
	}
	return obs.DigestOf(buf)
}

// --- the plain-float64 answer to an aggregate catalog -----------------------

// plainPartial is the unreproducible engine's partial answer over some rows:
// one engine.GroupedSum(SumPlain) per distinct column a SUM or AVG reads and
// one GroupedCount when an AVG or a COUNT needs it. For the Q1 catalog that
// is 5 sums and 1 count.
type plainPartial struct {
	sums   map[int][]float64
	counts []int64
}

func plainPartialOf(keys []uint32, cols [][]float64, groups int, specs []sqlagg.AggSpec) (plainPartial, error) {
	p := plainPartial{sums: make(map[int][]float64)}
	for _, sp := range specs {
		switch sp.Kind {
		case sqlagg.AggSum, sqlagg.AggAvg, sqlagg.AggCount:
		default:
			return p, fmt.Errorf("no plain counterpart for %s", sp.Kind)
		}
		if _, ok := p.sums[sp.Col]; !ok && sp.Kind != sqlagg.AggCount {
			s, err := engine.GroupedSum(keys, groups, cols[sp.Col], engine.GroupByConfig{Kind: engine.SumPlain}, nil)
			if err != nil {
				return p, err
			}
			p.sums[sp.Col] = s
		}
		if p.counts == nil && sp.Kind != sqlagg.AggSum {
			p.counts = engine.GroupedCount(keys, groups, nil)
		}
	}
	return p, nil
}

// add folds another shard's partial in, the way a plain engine would: with
// float64 additions whose result depends on the order of the shards.
func (p *plainPartial) add(o plainPartial) {
	for c, s := range o.sums {
		for g := range s {
			p.sums[c][g] += s[g]
		}
	}
	for g := range o.counts {
		p.counts[g] += o.counts[g]
	}
}

// finalize returns one column per spec: the sums, GroupedAvg per AVG, the
// counts as float64.
func (p plainPartial) finalize(specs []sqlagg.AggSpec) [][]float64 {
	out := make([][]float64, len(specs))
	for i, sp := range specs {
		switch sp.Kind {
		case sqlagg.AggSum:
			out[i] = p.sums[sp.Col]
		case sqlagg.AggAvg:
			out[i] = engine.GroupedAvg(p.sums[sp.Col], p.counts)
		default:
			c := make([]float64, len(p.counts))
			for g := range p.counts {
				c[g] = float64(p.counts[g])
			}
			out[i] = c
		}
	}
	return out
}

// plainAnswer is the baseline of serve_mix: the plain engine's answer to one
// query on the calling client's thread, as the server executes it.
func plainAnswer(keys []uint32, cols [][]float64, groups int, specs []sqlagg.AggSpec) ([][]float64, error) {
	p, err := plainPartialOf(keys, cols, groups, specs)
	if err != nil {
		return nil, err
	}
	return p.finalize(specs), nil
}

// plainShardedAnswer is the baseline of dist_q1 and cluster_shuffle: the
// plain engine's answer computed with the parallelism of the reproducible
// op — one goroutine per shard, partials added at the end — so that the
// ratio of the two compares aggregation work and not core counts.
func plainShardedAnswer(shardKeys [][]uint32, shardCols [][][]float64, groups int, specs []sqlagg.AggSpec) ([][]float64, error) {
	parts := make([]plainPartial, len(shardKeys))
	errs := make([]error, len(shardKeys))
	var wg sync.WaitGroup
	for i := range shardKeys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = plainPartialOf(shardKeys[i], shardCols[i], groups, specs)
		}()
	}
	wg.Wait()
	for i := range parts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if i > 0 {
			parts[0].add(parts[i])
		}
	}
	return parts[0].finalize(specs), nil
}

func equalTuples(got, want []dist.TupleGroup) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || len(got[i].Aggs) != len(want[i].Aggs) {
			return fmt.Errorf("group %d: key %d with %d aggregates, reference key %d with %d",
				i, got[i].Key, len(got[i].Aggs), want[i].Key, len(want[i].Aggs))
		}
		for c := range got[i].Aggs {
			if math.Float64bits(got[i].Aggs[c]) != math.Float64bits(want[i].Aggs[c]) {
				return fmt.Errorf("group %d column %d: %016x, reference %016x",
					i, c, math.Float64bits(got[i].Aggs[c]), math.Float64bits(want[i].Aggs[c]))
			}
		}
	}
	return nil
}

// --- dist_q1 ----------------------------------------------------------------

func setupDistQ1(seed uint64, scale int) (*instance, error) {
	tbl := tpch.GenLineitemRows((1<<20)/scale, seed)
	keys, cols, err := tpch.Q1Input(tbl)
	if err != nil {
		return nil, err
	}
	shardKeys, shardCols := tpch.ShardQ1Input(keys, cols, 2)
	specs := tpch.Q1Specs(levels)
	groups := 0
	for _, k := range keys {
		groups = max(groups, int(k)+1)
	}

	// Reference: the local engine's reproducible answer, compared the way
	// q1_equivalence_test.go compares them.
	want, _, err := tpch.RunQ1(tbl, engine.GroupByConfig{Kind: engine.SumRepro, Levels: levels})
	if err != nil {
		return nil, err
	}

	var tuples []repro.TupleGroup
	ops := pairOps{
		repro: func() (err error) {
			tuples, err = repro.DistributedAggregateByKey(shardKeys, shardCols, 1, specs, repro.WithTCPTransport())
			return err
		},
		check: func() error {
			got, err := tpch.Q1FromTuples(tuples)
			if err != nil {
				return err
			}
			return equalQ1(got, want)
		},
		base: func() error {
			_, err := plainShardedAnswer(shardKeys, shardCols, groups, specs)
			return err
		},
	}
	if err := ops.warm(); err != nil {
		return nil, err
	}
	return &instance{
		rows:    len(keys),
		digest:  obs.DigestOf(dist.EncodeTupleGroups(tuples, len(specs))),
		input:   probeInput{seed: seed, keys: keys, cols: cols, groups: groups, specs: specs, lineitem: tbl},
		measure: ops.measure,
		close:   func() {},
	}, nil
}

func equalQ1(got, want []tpch.Q1Group) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d Q1 groups, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ReturnFlag != w.ReturnFlag || g.LineStatus != w.LineStatus || g.Count != w.Count {
			return fmt.Errorf("Q1 row %d: %c%c/%d, reference %c%c/%d",
				i, g.ReturnFlag, g.LineStatus, g.Count, w.ReturnFlag, w.LineStatus, w.Count)
		}
		for c, pair := range [][2]float64{
			{g.SumQty, w.SumQty}, {g.SumBasePrice, w.SumBasePrice},
			{g.SumDiscPrice, w.SumDiscPrice}, {g.SumCharge, w.SumCharge},
			{g.AvgQty, w.AvgQty}, {g.AvgPrice, w.AvgPrice}, {g.AvgDisc, w.AvgDisc},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				return fmt.Errorf("Q1 group %c%c output column %d: %016x, reference %016x",
					g.ReturnFlag, g.LineStatus, c, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}
	}
	return nil
}

// --- cluster_shuffle --------------------------------------------------------

// clusterNodes is fixed, not nproc: the workload is the 2-process shuffle.
const clusterNodes = 2

func setupClusterShuffle(seed uint64, scale int) (*instance, error) {
	const groups = 1 << 16
	n := (1 << 20) / scale
	keys := workload.Keys(seed, n, groups)
	cols := make([][]float64, 5)
	for c := range cols {
		cols[c] = workload.Values64(seed+1+uint64(c), n, workload.MixedMag)
	}
	// ShardQ1Input is the repo's round-robin dealer for any key/column rows.
	shardKeys, shardCols := tpch.ShardQ1Input(keys, cols, clusterNodes)
	specs := tpch.Q1Specs(levels)

	// Reference: the in-process channel-transport plane.
	want, err := dist.AggregateTuples(shardKeys, shardCols, 1, specs)
	if err != nil {
		return nil, err
	}

	cluster, err := repro.NewCluster(repro.ClusterSpec{Nodes: clusterNodes})
	if err != nil {
		return nil, err
	}
	job := repro.Job{Workers: 1, Specs: specs, Source: repro.RowShards(shardKeys, shardCols)}
	var res *repro.JobResult
	ops := pairOps{
		repro: func() (err error) { res, err = cluster.Run(job); return err },
		check: func() error {
			if res.Replacements != 0 {
				return fmt.Errorf("%d workers replaced mid-run", res.Replacements)
			}
			return equalTuples(res.Groups, want)
		},
		base: func() error {
			_, err := plainShardedAnswer(shardKeys, shardCols, groups, specs)
			return err
		},
	}
	if err := ops.warm(); err != nil {
		cluster.Close()
		return nil, err
	}
	return &instance{
		rows:    n,
		digest:  obs.DigestOf(dist.EncodeTupleGroups(want, len(specs))),
		input:   probeInput{seed: seed, keys: keys, cols: cols, groups: groups, specs: specs},
		measure: ops.measure,
		close:   func() { cluster.Close() },
	}, nil
}
