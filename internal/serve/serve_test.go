package serve

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dist"
	"repro/internal/dist/proc"
	"repro/internal/partition"
	"repro/internal/sqlagg"
	"repro/internal/workload"
)

func testDataset(t *testing.T, n int, ngroups uint32, ncols int) *Dataset {
	t.Helper()
	ds, err := SyntheticDataset(42, n, ngroups, ncols, workload.MixedMag, DatasetOptions{Shards: 3})
	if err != nil {
		t.Fatalf("SyntheticDataset: %v", err)
	}
	return ds
}

func mustServer(t *testing.T, ds *Dataset, opts Options) *Server {
	t.Helper()
	s, err := NewServer(ds, opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// testSpecs is a catalog-spanning aggregate list: every state family
// (plain sum, count, avg, variance-backed, min/max) over 2 columns.
func testSpecs() []sqlagg.AggSpec {
	return []sqlagg.AggSpec{
		{Kind: sqlagg.AggSum, Col: 0},
		{Kind: sqlagg.AggCount, Col: 0},
		{Kind: sqlagg.AggAvg, Col: 1},
		{Kind: sqlagg.AggStddevSamp, Col: 0},
		{Kind: sqlagg.AggMin, Col: 1},
		{Kind: sqlagg.AggMax, Col: 0},
	}
}

func TestQueryEncodeCanonical(t *testing.T) {
	// Levels 0 and the explicit default must share one encoding (and
	// therefore one cache entry).
	a, err := GroupBy(sqlagg.AggSpec{Kind: sqlagg.AggSum, Col: 3}).Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	b, err := GroupBy(sqlagg.AggSpec{Kind: sqlagg.AggSum, Levels: 2, Col: 3}).Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("level 0 and explicit default levels encode differently")
	}
}

func TestBadQueries(t *testing.T) {
	ds := testDataset(t, 1<<10, 64, 2)
	s := mustServer(t, ds, Options{})
	cases := []Query{
		{},                                // zero value
		{Kind: 77},                        // unknown kind
		GroupBy(),                         // no aggregates
		GroupBy(sqlagg.AggSpec{Kind: 99}), // unregistered aggregate
		GroupBy(sqlagg.AggSpec{Kind: sqlagg.AggSum, Col: 2}), // column out of range
		WindowTotals(5, 0),   // column out of range
		WindowTotals(0, 100), // levels out of range
	}
	for _, q := range cases {
		if _, err := s.Do(q); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("Do(%+v) = %v, want ErrBadQuery", q, err)
		}
	}
}

func TestBudgetRejection(t *testing.T) {
	ds := testDataset(t, 1<<12, 1024, 2)
	s := mustServer(t, ds, Options{MemoryBudget: 64}) // far below any real query
	_, err := s.Do(GroupBy(testSpecs()...))
	if !errors.Is(err, ErrOverBudget) {
		t.Fatalf("Do under a 64-byte budget = %v, want ErrOverBudget", err)
	}
	if st := s.Stats(); st.RejectedBudget != 1 || st.Served != 0 {
		t.Fatalf("stats after budget rejection: %+v", st)
	}

	// The same query clears a realistic budget: the estimate is a bound
	// on group-dependent memory, not a blank refusal.
	est, err := ds.EstimateBytes(GroupBy(testSpecs()...))
	if err != nil {
		t.Fatalf("EstimateBytes: %v", err)
	}
	roomy := mustServer(t, ds, Options{MemoryBudget: est})
	if _, err := roomy.Do(GroupBy(testSpecs()...)); err != nil {
		t.Fatalf("Do under budget == estimate: %v", err)
	}
}

// TestBudgetPricesExactKeys: admission prices a GROUP BY on the distinct
// keys the load counted, not on a bound from the partitions' rows and
// ranges. 4 096 keys spread k<<20 over the key space leave every part of
// the load's one pass with more rows than keys, so each part's Bound is
// its row count and their sum is the 2^19 rows; a budget of the query's
// price at the exact key count must admit it.
func TestBudgetPricesExactKeys(t *testing.T) {
	const rows, keys = 1 << 19, 4096
	ks := make([]uint32, rows)
	for i := range ks {
		ks[i] = uint32(i%keys) << 20
	}
	ds, err := NewDataset(ks, [][]float64{workload.Values64(5, rows, workload.MixedMag)}, DatasetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := sqlagg.AggSpec{Kind: sqlagg.AggSum, Col: 0}
	ts, err := sqlagg.TupleSize([]sqlagg.AggSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	budget := keys * (ts + 2*(4+8))
	s := mustServer(t, ds, Options{MemoryBudget: budget})
	res, err := s.Do(GroupBy(spec))
	if err != nil {
		t.Fatalf("Do under a budget of the query's exact need (%d bytes): %v", budget, err)
	}
	if gs, err := res.Groups(); err != nil || len(gs) != keys {
		t.Fatalf("Groups() = %d groups, %v; want %d", len(gs), err, keys)
	}
}

// TestAdmissionControl drives the gate deterministically: one slot and
// a one-deep queue, with execution blocked on a test gate. The second
// query queues, the third is turned away with ErrOverloaded, and the
// queued one times out with ErrQueueTimeout once the timeout elapses.
func TestAdmissionControl(t *testing.T) {
	ds := testDataset(t, 1<<8, 16, 1)
	s := mustServer(t, ds, Options{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueTimeout:  50 * time.Millisecond,
		CacheEntries:  -1, // every query must execute
	})
	hold := make(chan struct{})
	entered := make(chan struct{}, 16)
	s.execGate = func() {
		entered <- struct{}{}
		<-hold
	}

	q := GroupBy(sqlagg.AggSpec{Kind: sqlagg.AggSum, Col: 0})
	firstDone := make(chan error, 1)
	go func() {
		_, err := s.Do(q)
		firstDone <- err
	}()
	<-entered // the first query now owns the only slot

	// The second query joins the queue and eventually times out.
	queuedDone := make(chan error, 1)
	go func() {
		_, err := s.Do(q)
		queuedDone <- err
	}()
	// Wait until it is genuinely queued before probing the full-queue
	// rejection path.
	for i := 0; s.queued.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := s.Do(q); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third query = %v, want ErrOverloaded", err)
	}
	if err := <-queuedDone; !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued query = %v, want ErrQueueTimeout", err)
	}

	close(hold)
	if err := <-firstDone; err != nil {
		t.Fatalf("first query: %v", err)
	}
	st := s.Stats()
	if st.RejectedQueue != 1 || st.RejectedTimeout != 1 || st.Served != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSustains32Inflight holds ≥32 queries simultaneously in execution
// behind a barrier that only opens when all 32 have entered — the
// concurrency floor of the serving layer, deterministic (not a timing
// race) and meaningful under -race.
func TestSustains32Inflight(t *testing.T) {
	const want = 32
	ds := testDataset(t, 1<<10, 64, 2)
	s := mustServer(t, ds, Options{
		MaxConcurrent: want,
		CacheEntries:  -1, // force every query through execution
	})
	var barrier sync.WaitGroup
	barrier.Add(want)
	s.execGate = func() {
		barrier.Done()
		barrier.Wait() // every query holds here until all 32 are in flight
	}

	q := GroupBy(testSpecs()...)
	var wg sync.WaitGroup
	errs := make([]error, want)
	results := make([][]byte, want)
	for i := 0; i < want; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Do(q)
			if err == nil {
				results[i] = r.Bytes
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("query %d returned different bytes than query 0", i)
		}
	}
	if st := s.Stats(); st.PeakInflight < want {
		t.Fatalf("peak in-flight %d, want ≥ %d", st.PeakInflight, want)
	}
}

func TestCacheHitByteIdenticalToRecomputation(t *testing.T) {
	ds := testDataset(t, 1<<12, 512, 2)
	s := mustServer(t, ds, Options{})
	uncached := mustServer(t, ds, Options{CacheEntries: -1})

	for _, q := range []Query{GroupBy(testSpecs()...), WindowTotals(0, 0)} {
		cold, err := s.Do(q)
		if err != nil {
			t.Fatalf("cold: %v", err)
		}
		if cold.CacheHit {
			t.Fatal("first execution reported a cache hit")
		}
		warm, err := s.Do(q)
		if err != nil {
			t.Fatalf("warm: %v", err)
		}
		if !warm.CacheHit {
			t.Fatal("second execution missed the cache")
		}
		// The hit must be byte-identical to an independent recomputation
		// on a server with no cache at all.
		fresh, err := uncached.Do(q)
		if err != nil {
			t.Fatalf("recompute: %v", err)
		}
		if !bytes.Equal(warm.Bytes, fresh.Bytes) {
			t.Fatal("cache hit differs from recomputation")
		}
		if !bytes.Equal(cold.Bytes, warm.Bytes) {
			t.Fatal("cache returned different bytes than it stored")
		}
	}
	if st := s.Stats(); st.CacheHits != 2 || st.CacheMisses != 2 {
		t.Fatalf("stats: %+v", st)
	}

	// With tracing off a hit hashes nothing: no span will carry the
	// digest, so the FNV pass over the cached bytes and its hex string
	// must not happen. That leaves the hit path's own four allocations —
	// the canonical query encoding, the cache key (two), the Result; each
	// digest would add two more. Budget pricing, which runs before the
	// lookup, reads the catalog and adds none.
	hot := GroupBy(testSpecs()...)
	for _, budget := range []int{-1, 0} {
		quiet := mustServer(t, ds, Options{TraceEntries: -1, MemoryBudget: budget})
		if _, err := quiet.Do(hot); err != nil {
			t.Fatalf("budget %d: untraced cold: %v", budget, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if r, err := quiet.Do(hot); err != nil || !r.CacheHit {
				t.Fatalf("budget %d: untraced warm: %+v, %v", budget, r, err)
			}
		})
		if allocs > 5 {
			t.Errorf("budget %d: untraced cache hit allocates %v times, want <= 5 (is a digest being computed for a span nobody records, or a query priced by building states?)", budget, allocs)
		}
	}

	// VerifyCache recomputes hits and confirms the invariant inline.
	vs := mustServer(t, ds, Options{VerifyCache: true})
	q := GroupBy(testSpecs()...)
	if _, err := vs.Do(q); err != nil {
		t.Fatalf("verify cold: %v", err)
	}
	r, err := vs.Do(q)
	if err != nil {
		t.Fatalf("verify warm: %v", err)
	}
	if !r.CacheHit {
		t.Fatal("verify warm missed the cache")
	}
}

// TestConcurrentEquivalenceMatrix is the serving layer's core claim:
// the same query answered from N goroutines — cache cold and warm, on
// the local engine and the distributed backend — returns bit-identical
// results everywhere. Run under -race in CI.
//
// One PR-sized shape runs by default: 8 goroutines, each query once.
// REPRO_SERVE_MATRIX=1 (CI nightly) widens it to 2^20 rows into 4096
// groups under 1, 8 and 32 clients issuing 64 queries each (dealt over
// the query list), for dataset seeds 1–3.
func TestConcurrentEquivalenceMatrix(t *testing.T) {
	queries := []Query{
		GroupBy(testSpecs()...),
		GroupBy(
			sqlagg.AggSpec{Kind: sqlagg.AggVarPop, Levels: 3, Col: 2},
			sqlagg.AggSpec{Kind: sqlagg.AggSum, Levels: 3, Col: 2},
		),
		WindowTotals(2, 0),
	}
	if os.Getenv("REPRO_SERVE_MATRIX") != "1" {
		concurrentEquivalence(t, testDataset(t, 1<<12, 256, 3), queries, 8, len(queries))
		return
	}
	for seed := uint64(1); seed <= 3; seed++ {
		ds, err := SyntheticDataset(seed, 1<<20, 4096, 3, workload.MixedMag, DatasetOptions{Shards: 3})
		if err != nil {
			t.Fatalf("SyntheticDataset: %v", err)
		}
		for _, clients := range []int{1, 8, 32} {
			// A subtest per cell, so its four servers close with it.
			t.Run(fmt.Sprintf("seed%d/clients%d", seed, clients), func(t *testing.T) {
				concurrentEquivalence(t, ds, queries, clients, 64)
			})
		}
	}
}

// concurrentEquivalence runs every backend × cache temperature over ds
// with `goroutines` concurrent clients, each issuing perClient queries
// in total, dealt evenly over the query list.
func concurrentEquivalence(t *testing.T, ds *Dataset, queries []Query, goroutines, perClient int) {
	backends := []struct {
		name string
		opts Options
	}{
		{"local", Options{MaxConcurrent: goroutines}},
		{"cluster", Options{MaxConcurrent: goroutines, Distributed: true}},
	}

	// reference[qi] is filled by the first backend and every later
	// (backend, temperature, goroutine) cell must match it.
	reference := make([][]byte, len(queries))

	for _, be := range backends {
		for _, temperature := range []string{"cold", "warm"} {
			opts := be.opts
			if temperature == "cold" {
				opts.CacheEntries = -1 // all N goroutines recompute
			}
			s := mustServer(t, ds, opts)
			if temperature == "warm" {
				for _, q := range queries {
					if _, err := s.Do(q); err != nil {
						t.Fatalf("%s/%s prewarm: %v", be.name, temperature, err)
					}
				}
			}
			for qi, q := range queries {
				rounds := (perClient + len(queries) - 1 - qi) / len(queries)
				got := make([][]byte, goroutines)
				errs := make([]error, goroutines)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						// got[g] keeps the first answer; a later round that
						// differs from it is this goroutine's error.
						for i := 0; i < rounds && errs[g] == nil; i++ {
							r, err := s.Do(q)
							switch {
							case err != nil:
								errs[g] = err
							case got[g] == nil:
								got[g] = r.Bytes
							case !bytes.Equal(r.Bytes, got[g]):
								errs[g] = fmt.Errorf("round %d bytes diverge from round 0", i)
							}
						}
					}(g)
				}
				wg.Wait()
				for g := 0; g < goroutines; g++ {
					if errs[g] != nil {
						t.Fatalf("%s/%s query %d goroutine %d: %v", be.name, temperature, qi, g, errs[g])
					}
					if reference[qi] == nil {
						reference[qi] = got[g]
					}
					if !bytes.Equal(got[g], reference[qi]) {
						t.Fatalf("%s/%s query %d goroutine %d: bytes diverge from the reference cell",
							be.name, temperature, qi, g)
					}
				}
			}
		}
	}
}

func TestWindowTotalsMatchSqlagg(t *testing.T) {
	ds := testDataset(t, 1<<10, 32, 2)
	s := mustServer(t, ds, Options{})
	r, err := s.Do(WindowTotals(1, 0))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	totals, err := r.Totals()
	if err != nil {
		t.Fatalf("Totals: %v", err)
	}
	want := sqlagg.WindowTotals(ds.keys, ds.cols[1], resolvedLevels(0))
	if len(totals) != len(want) {
		t.Fatalf("%d totals, want %d", len(totals), len(want))
	}
	for i := range want {
		if totals[i] != want[i] && !(totals[i] != totals[i] && want[i] != want[i]) {
			t.Fatalf("row %d: %v, want %v", i, totals[i], want[i])
		}
	}
}

func TestGroupsDecodeAndCount(t *testing.T) {
	ds := testDataset(t, 1<<12, 128, 2)
	s := mustServer(t, ds, Options{})
	r, err := s.Do(GroupBy(
		sqlagg.AggSpec{Kind: sqlagg.AggSum, Col: 0},
		sqlagg.AggSpec{Kind: sqlagg.AggCount, Col: 0},
	))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	gs, err := r.Groups()
	if err != nil {
		t.Fatalf("Groups: %v", err)
	}
	distinct := workload.DistinctGroups(ds.keys)
	if len(gs) != distinct {
		t.Fatalf("%d groups, want %d distinct keys", len(gs), distinct)
	}
	var rows float64
	for i := range gs {
		if i > 0 && gs[i].Key <= gs[i-1].Key {
			t.Fatal("groups not strictly key-sorted")
		}
		rows += gs[i].Aggs[1]
	}
	if int(rows) != ds.Rows() {
		t.Fatalf("COUNT sums to %d, want %d rows", int(rows), ds.Rows())
	}
	if len(gs) > ds.DistinctBound() {
		t.Fatalf("distinct bound %d undercounts the %d actual groups", ds.DistinctBound(), len(gs))
	}
}

// TestLocalMatchesDistributedOnOutlier: one 0xFFFFFFFF key beside 2^16
// dense ids leaves every row but one behind the same leading digit of
// the resident partitioning, which its repair of overfull partitions
// has to spread. The local engine concatenates its partitions' runs
// without sorting them; its bytes must still equal the distributed
// plane's k-way merged, key-sorted result.
func TestLocalMatchesDistributedOnOutlier(t *testing.T) {
	const rows = 1 << 17
	keys := workload.Keys(61, rows, 1<<16)
	keys[rows/3] = 0xFFFFFFFF
	cols := [][]float64{workload.Values64(62, rows, workload.MixedMag), workload.Values64(63, rows, workload.Uniform12)}
	ds, err := NewDataset(keys, cols, DatasetOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var got [2]*Result
	for i, opts := range []Options{{Workers: 3}, {Workers: 2, Distributed: true}} {
		if got[i], err = mustServer(t, ds, opts).Do(GroupBy(testSpecs()...)); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
	}
	if !bytes.Equal(got[0].Bytes, got[1].Bytes) {
		t.Fatalf("local result (%d bytes) differs from the distributed one (%d bytes)", len(got[0].Bytes), len(got[1].Bytes))
	}
	if gs, err := got[0].Groups(); err != nil || len(gs) != workload.DistinctGroups(keys) || gs[len(gs)-1].Key != 0xFFFFFFFF {
		t.Fatalf("local result: %d groups (err %v), want %d ending in the 0xFFFFFFFF outlier", len(gs), err, workload.DistinctGroups(keys))
	}
}

// keyShapes are the key columns the key-clustered layout sorts
// differently: dense keys (a counting sort per part), one key (a part
// left whole), stride 256, a 0xFFFFFFFF outlier beside dense ids, keys
// spread wider than a part's rows (the pair sort), and 2^16 keys of one
// or two rows each.
func keyShapes() map[string][]uint32 {
	const rows = 1 << 13
	rng := workload.NewRNG(91)
	stride := workload.Keys(92, rows, 512)
	for i := range stride {
		stride[i] *= 256
	}
	outlier := workload.Keys(93, rows, 1<<12)
	outlier[rows/3] = 0xFFFFFFFF
	wide := make([]uint32, rows)
	for i := range wide {
		wide[i] = uint32(rng.Uint64())
	}
	var few []uint32
	for k := range uint32(1 << 16) {
		few = append(few, k)
		if rng.Intn(2) == 1 {
			few = append(few, k)
		}
	}
	for i := len(few) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		few[i], few[j] = few[j], few[i]
	}
	return map[string][]uint32{
		"dense":    workload.Keys(94, rows, 1024),
		"one key":  slices.Repeat([]uint32{7}, rows),
		"stride":   stride,
		"outlier":  outlier,
		"wide":     wide,
		"1-2 rows": few,
	}
}

// shapeColumns is two value columns for keys.
func shapeColumns(keys []uint32) [][]float64 {
	return [][]float64{workload.Values64(95, len(keys), workload.MixedMag), workload.Values64(96, len(keys), workload.Uniform12)}
}

// TestLocalMatchesDistributedMatrix: on every key shape, the local
// engine's bytes equal the distributed backend's, for plans of every
// component shape — the catalog mix, the variance family, extrema
// alone, COUNT alone, SUM at L = 1 and at L = 4 — with 1, 2 and 3
// workers both loading the dataset and running the query.
func TestLocalMatchesDistributedMatrix(t *testing.T) {
	plans := map[string][]sqlagg.AggSpec{
		"catalog mix": testSpecs(),
		"variance": {
			{Kind: sqlagg.AggVarPop, Col: 0}, {Kind: sqlagg.AggVarSamp, Col: 1},
			{Kind: sqlagg.AggStddevPop, Col: 1}, {Kind: sqlagg.AggStddevSamp, Col: 0},
		},
		"min max": {{Kind: sqlagg.AggMin, Col: 0}, {Kind: sqlagg.AggMax, Col: 1}},
		"count":   {{Kind: sqlagg.AggCount}},
		"sum L=1": {{Kind: sqlagg.AggSum, Levels: 1, Col: 0}},
		"sum L=4": {{Kind: sqlagg.AggSum, Levels: 4, Col: 1}},
	}
	for shape, keys := range keyShapes() {
		cols := shapeColumns(keys)
		want := make(map[string][]byte)
		for _, workers := range []int{1, 2, 3} {
			ds, err := NewDataset(keys, cols, DatasetOptions{Shards: 3, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				ref := mustServer(t, ds, Options{Workers: 2, Distributed: true})
				for name, specs := range plans {
					r, err := ref.Do(GroupBy(specs...))
					if err != nil {
						t.Fatalf("%s, %s: distributed: %v", shape, name, err)
					}
					want[name] = r.Bytes
				}
			}
			local := mustServer(t, ds, Options{Workers: workers})
			for name, specs := range plans {
				r, err := local.Do(GroupBy(specs...))
				if err != nil {
					t.Fatalf("%s, %s, %d workers: local: %v", shape, name, workers, err)
				}
				if !bytes.Equal(r.Bytes, want[name]) {
					t.Errorf("%s, %s, %d workers: local result (%d bytes) differs from the distributed one (%d bytes)",
						shape, name, workers, len(r.Bytes), len(want[name]))
				}
			}
		}
	}
}

// TestLocalMatchesDistributedExtents: every kind of extent the load
// records for a run reaches a query — runs of only ±0, runs holding a
// NaN, ±Inf or 2^1000 (whose square is +Inf), runs of only subnormals,
// and a 5 000-row key whose largest value is its last row, so that it
// lies in the run's last tile — and the local engine's bytes still equal
// the distributed backend's, with 1 and 2 workers loading and querying;
// a cache hit returns the same bytes.
func TestLocalMatchesDistributedExtents(t *testing.T) {
	rng := workload.NewRNG(47)
	normal := func() float64 { return math.Ldexp(rng.Float64()-0.5, rng.Intn(40)-20) }
	subnormal := func() float64 { return math.Float64frombits(rng.Uint64()&(1<<52-1) | rng.Uint64()&(1<<63)) }
	zero := func() float64 { return math.Copysign(0, rng.Float64()-0.5) }
	// with is a column of a key's run: row at holds v, the others base's.
	with := func(base func() float64, at int, v float64) func(int) float64 {
		return func(i int) float64 {
			if i == at {
				return v
			}
			return base()
		}
	}
	type key struct {
		rows int
		fill [2]func(i int) float64
	}
	plain := with(normal, -1, 0)
	keys := map[uint32]key{
		10: {7, [2]func(int) float64{with(zero, -1, 0), with(zero, -1, 0)}},
		11: {300, [2]func(int) float64{with(normal, 150, math.NaN()), plain}},
		12: {40, [2]func(int) float64{with(normal, 5, math.Inf(1)), with(normal, 39, math.Inf(-1))}},
		13: {9, [2]func(int) float64{with(normal, 4, 0x1p1000), with(normal, 0, -0x1p1000)}},
		14: {33, [2]func(int) float64{with(subnormal, -1, 0), with(subnormal, -1, 0)}},
		15: {5000, [2]func(int) float64{with(normal, 4999, 0x1.8p70), with(normal, 4999, -0x1p40)}},
		16: {3, [2]func(int) float64{with(zero, -1, 0), with(subnormal, -1, 0)}},
	}
	for k := range uint32(10) {
		keys[k] = key{50, [2]func(int) float64{plain, plain}}
	}
	// Deal the rows in a random order that keeps each key's rows in
	// theirs: the load's sort is stable, so key 15's last row stays last.
	var order []uint32
	for k, kk := range keys {
		order = append(order, slices.Repeat([]uint32{k}, kk.rows)...)
	}
	slices.Sort(order)
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	cols := [][]float64{make([]float64, len(order)), make([]float64, len(order))}
	seen := make(map[uint32]int)
	for r, k := range order {
		for c := range cols {
			cols[c][r] = keys[k].fill[c](seen[k])
		}
		seen[k]++
	}
	plans := [][]sqlagg.AggSpec{
		testSpecs(),
		{{Kind: sqlagg.AggSum, Levels: 1, Col: 1}, {Kind: sqlagg.AggSum, Levels: 6, Col: 0}, {Kind: sqlagg.AggVarPop, Col: 1}},
	}
	for _, workers := range []int{1, 2} {
		ds, err := NewDataset(order, cols, DatasetOptions{Shards: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ref := mustServer(t, ds, Options{Workers: 2, Distributed: true})
		local := mustServer(t, ds, Options{Workers: workers})
		for i, specs := range plans {
			want, err := ref.Do(GroupBy(specs...))
			if err != nil {
				t.Fatalf("plan %d: distributed: %v", i, err)
			}
			for _, hit := range []bool{false, true} {
				got, err := local.Do(GroupBy(specs...))
				if err != nil || got.CacheHit != hit || !bytes.Equal(got.Bytes, want.Bytes) {
					t.Fatalf("plan %d, %d workers, cache hit %v: local result (%d bytes, hit %v, err %v) differs from the distributed one (%d bytes)",
						i, workers, hit, len(got.Bytes), got.CacheHit, err, len(want.Bytes))
				}
			}
		}
	}
}

// TestDatasetKeyClustered holds the load-time sort to what the local
// engine relies on, on every key shape and 1, 2 and 3 load workers:
// every part's keys ascend; its runs cover its rows exactly, one key
// each, and are numbered on from the parts before it; and the sort only
// moved rows: each part holds the multiset of (key, value bits) that
// partitioning alone leaves in it.
func TestDatasetKeyClustered(t *testing.T) {
	type row struct {
		key  uint32
		bits [2]uint64
	}
	rowsOf := func(pt partition.Part[float64]) []row {
		out := make([]row, len(pt.Keys))
		for i, k := range pt.Keys {
			out[i] = row{k, [2]uint64{math.Float64bits(pt.Cols[0][i]), math.Float64bits(pt.Cols[1][i])}}
		}
		slices.SortFunc(out, func(a, b row) int {
			return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.bits[0], b.bits[0]), cmp.Compare(a.bits[1], b.bits[1]))
		})
		return out
	}
	for shape, keys := range keyShapes() {
		cols := shapeColumns(keys)
		for _, workers := range []int{1, 2, 3} {
			ds, err := NewDataset(keys, cols, DatasetOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			unsorted := partition.Recursive(keys, cols, 1, agg.DefaultFanout, workers)
			if len(unsorted) != len(ds.parts) {
				t.Fatalf("%s, %d workers: %d parts, partitioning alone gives %d", shape, workers, len(ds.parts), len(unsorted))
			}
			groups := 0
			for p, pt := range ds.parts {
				name := fmt.Sprintf("%s, %d workers, part %d", shape, workers, p)
				if !slices.IsSorted(pt.Keys) {
					t.Fatalf("%s: keys do not ascend", name)
				}
				st := pt.starts
				if pt.first != groups || len(st) < 2 || st[0] != 0 || int(st[len(st)-1]) != len(pt.Keys) {
					t.Fatalf("%s: runs %v from group %d do not cover its %d rows from group %d", name, st, pt.first, len(pt.Keys), groups)
				}
				for r := 1; r < len(st); r++ {
					lo, hi := st[r-1], st[r]
					if lo >= hi || pt.Keys[lo] != pt.Keys[hi-1] || (r > 1 && pt.Keys[lo-1] == pt.Keys[lo]) {
						t.Fatalf("%s: run %d, rows [%d, %d), is not one whole key", name, r-1, lo, hi)
					}
				}
				groups += len(st) - 1
				if !slices.Equal(rowsOf(pt.Part), rowsOf(unsorted[p])) {
					t.Fatalf("%s: the sort changed the part's rows", name)
				}
			}
			if groups != ds.groups || groups != workload.DistinctGroups(keys) {
				t.Fatalf("%s, %d workers: %d runs, %d groups recorded, %d distinct keys", shape, workers, groups, ds.groups, workload.DistinctGroups(keys))
			}
		}
	}
}

// TestVersionIsFNV64a pins Dataset.Version to hash/fnv's FNV-64a over
// the keys' little-endian bytes, then every column's values' — a NaN
// payload and −0 among them, digested by their bits — so that the
// result cache's key does not drift.
func TestVersionIsFNV64a(t *testing.T) {
	keys := append(workload.Keys(97, 1000, 1<<20), 0, 0xFFFFFFFF)
	cols := [][]float64{workload.Values64(98, len(keys), workload.MixedMag), workload.Values64(99, len(keys), workload.Uniform12)}
	cols[0][3], cols[0][4] = math.Float64frombits(0x7FF8_0000_0000_1234), math.Copysign(0, -1)
	cols[1][5] = math.Float64frombits(0xFFF0_0000_0000_0001)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write(binary.LittleEndian.AppendUint32(nil, k))
	}
	for _, col := range cols {
		for _, v := range col {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	ds, err := NewDataset(keys, cols, DatasetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Version() != h.Sum64() {
		t.Fatalf("Version %016x, hash/fnv's FNV-64a %016x", ds.Version(), h.Sum64())
	}
}

func TestServerClosed(t *testing.T) {
	ds := testDataset(t, 1<<8, 16, 1)
	s := mustServer(t, ds, Options{})
	q := GroupBy(sqlagg.AggSpec{Kind: sqlagg.AggSum, Col: 0})
	if _, err := s.Do(q); err != nil {
		t.Fatalf("Do before close: %v", err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Do(q); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Do after close = %v, want ErrServerClosed", err)
	}
}

func TestDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil, [][]float64{{1}}, DatasetOptions{}); !errors.Is(err, ErrDataset) {
		t.Fatalf("no rows: %v", err)
	}
	if _, err := NewDataset([]uint32{1}, nil, DatasetOptions{}); !errors.Is(err, ErrDataset) {
		t.Fatalf("no columns: %v", err)
	}
	if _, err := NewDataset([]uint32{1, 2}, [][]float64{{1}}, DatasetOptions{}); !errors.Is(err, ErrDataset) {
		t.Fatalf("ragged column: %v", err)
	}

	// Version digests must separate datasets that differ in one bit.
	a, err := NewDataset([]uint32{1, 2}, [][]float64{{1, 2}}, DatasetOptions{})
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	b, err := NewDataset([]uint32{1, 2}, [][]float64{{1, 2.0000000000000004}}, DatasetOptions{})
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	if a.Version() == b.Version() {
		t.Fatal("one-ulp value change did not change the dataset version")
	}
}

// TestDatasetAllocBytes: a Dataset's one copy of the rows is its
// partitioned layout — the distributed backends read views of the rows
// it retains — so loading allocates little more than the input's bytes.
// With a round-robin dealt copy beside it, this shape allocated 5.5
// times them; it allocates 1.15 times them now.
func TestDatasetAllocBytes(t *testing.T) {
	const rows, ncols = 1 << 17, 8
	keys := workload.Keys(5, rows, 4096)
	cols := make([][]float64, ncols)
	for c := range cols {
		cols[c] = workload.Values64(6+uint64(c), rows, workload.MixedMag)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewDataset(keys, cols, DatasetOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	in := uint64(rows * (4 + 8*ncols))
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > in*5/4 {
		t.Errorf("NewDataset allocated %d bytes for %d bytes of input, limit 1.25×", alloc, in)
	}
}

// TestShardViewsOnePerNode: the distributed backend runs on one
// non-empty contiguous view of the rows per node — DatasetOptions.Shards
// of them in process, the cluster's own size on a Cluster, whatever
// Shards says — and the views alias the resident rows in order.
func TestShardViewsOnePerNode(t *testing.T) {
	ds := testDataset(t, 1000, 64, 2) // Shards: 3
	// Eight join slots: the cluster starts no worker and needs none.
	c, err := proc.NewCluster(proc.ClusterSpec{Nodes: 8, Join: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		opts  Options
		nodes int
	}{{Options{Distributed: true}, 3}, {Options{Cluster: c}, 8}} {
		s := mustServer(t, ds, tc.opts)
		if len(s.shardKeys) != tc.nodes || len(s.shardCols) != tc.nodes {
			t.Fatalf("%d key views and %d column views, want %d", len(s.shardKeys), len(s.shardCols), tc.nodes)
		}
		off := 0
		for i, keys := range s.shardKeys {
			cols := s.shardCols[i]
			if len(keys) == 0 || len(cols) != ds.Cols() || len(cols[1]) != len(keys) ||
				&keys[0] != &ds.keys[off] || &cols[1][0] != &ds.cols[1][off] {
				t.Fatalf("%d nodes: view %d is not rows %d.. of the resident data (%d keys)", tc.nodes, i, off, len(keys))
			}
			off += len(keys)
		}
		if off != ds.Rows() {
			t.Fatalf("%d nodes: views hold %d of %d rows", tc.nodes, off, ds.Rows())
		}
	}
}

// TestGroupByLocalAllocations pins the local engine's allocation shape:
// the resident partitions hold each key's rows as one run, so an
// executed GROUP BY keeps no aggregation table — per worker, one tuple
// and its scratch; for the query, the plan and the result bytes, which
// the runs finalize into, however many partitions and groups there are.
// A table per worker and a run per partition allocated 535 times on
// this shape at two workers, under a bound of
// workers·(8 + 3·slots) + 2·parts + 16; finalizing into groups and
// values encoded afterwards, 6·workers + 12 under 7·workers + 12.
func TestGroupByLocalAllocations(t *testing.T) {
	const groups = 1024
	ds := testDataset(t, 1<<15, groups, 2)
	specs := testSpecs()
	for _, workers := range []int{1, 2, 3} {
		s := mustServer(t, ds, Options{Workers: workers})
		want, err := s.groupByLocal(specs)
		if err != nil || len(want) != groups*dist.TupleRecordSize(len(specs)) {
			t.Fatalf("groupByLocal: %d bytes, err %v", len(want), err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := s.groupByLocal(specs); err != nil {
				t.Error(err)
			}
		})
		// Per worker: the tuple (its sums, extrema, scratch and itself,
		// which a closure captures), the finalized values' scratch and
		// two closures; for the query: the plan's seven, the result, a
		// closure and the workers' counter and wait group.
		if bound := float64(7*workers + 11); allocs > bound {
			t.Errorf("%v allocations for %d groups in %d partitions on %d workers, want ≤ %v", allocs, groups, len(ds.parts), workers, bound)
		}
	}
}

// BenchmarkGroupByLocal times the local engine alone on serve_mix's
// miss — SUM(a), AVG(b), COUNT(*) over 2^19 rows on one worker — at 64,
// 4 096 (serve_mix's own) and 2^16 groups: ns/op is one executed GROUP
// BY, from the resident runs to the key-sorted groups.
func BenchmarkGroupByLocal(b *testing.B) {
	specs := []sqlagg.AggSpec{{Kind: sqlagg.AggSum, Col: 0}, {Kind: sqlagg.AggAvg, Col: 1}, {Kind: sqlagg.AggCount}}
	for _, groups := range []uint32{64, 4096, 1 << 16} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			ds, err := SyntheticDataset(42, 1<<19, groups, 2, workload.MixedMag, DatasetOptions{})
			if err != nil {
				b.Fatal(err)
			}
			s, err := NewServer(ds, Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := s.groupByLocal(specs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewDataset times a load of 2^19 rows and 8 value columns,
// GOMAXPROCS load workers — the digest, the partitioning pass, the sort
// and the runs' extents — at serve_mix's 4 096 keys and at one row per
// key, where every run is a one-value extent. ext_B is the bytes the
// extents take.
func BenchmarkNewDataset(b *testing.B) {
	const rows, ncols = 1 << 19, 8
	for _, groups := range []uint32{4096, rows} {
		b.Run(fmt.Sprintf("keys=%d", groups), func(b *testing.B) {
			keys := workload.Keys(42, rows, groups)
			if groups == rows { // every key once, in random order
				for i := range keys {
					keys[i] = uint32(i)
				}
				workload.Shuffle(42, keys)
			}
			cols := make([][]float64, ncols)
			for c := range cols {
				cols[c] = workload.Values64(43+uint64(c), rows, workload.MixedMag)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var ds *Dataset
			for range b.N {
				var err error
				if ds, err = NewDataset(keys, cols, DatasetOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			ext := 0
			for _, pt := range ds.parts {
				ext += 2 * len(pt.ext) // an rsum.Extent is an int16
			}
			b.ReportMetric(float64(ext), "ext_B")
		})
	}
}
