package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

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
	// must not happen. Budget pricing is off too (it allocates per
	// aggregate), which leaves the hit path's own four allocations — the
	// canonical query encoding, the cache key (two), the Result; each
	// digest would add two more.
	quiet := mustServer(t, ds, Options{TraceEntries: -1, MemoryBudget: -1})
	hot := GroupBy(testSpecs()...)
	if _, err := quiet.Do(hot); err != nil {
		t.Fatalf("untraced cold: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if r, err := quiet.Do(hot); err != nil || !r.CacheHit {
			t.Fatalf("untraced warm: %+v, %v", r, err)
		}
	})
	if allocs > 5 {
		t.Errorf("untraced cache hit allocates %v times, want <= 5 (is a digest being computed for a span nobody records?)", allocs)
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

// TestGroupByLocalAllocations pins the local engine's allocation shape:
// a worker keeps one aggregation table (and its tuples' buffers) for all
// the partitions it drains, so an executed GROUP BY allocates per worker
// and per output run — not one table and one state tuple per group per
// partition, which was 11 273 allocations on this shape.
func TestGroupByLocalAllocations(t *testing.T) {
	const groups, workers = 1024, 2
	ds := testDataset(t, 1<<15, groups, 2)
	s := mustServer(t, ds, Options{Workers: workers})
	specs := testSpecs()
	want, err := s.groupByLocal(specs)
	if err != nil || len(want) != groups {
		t.Fatalf("groupByLocal: %d groups, err %v", len(want), err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.groupByLocal(specs); err != nil {
			t.Error(err)
		}
	})
	parts := len(ds.parts)
	// Per worker: the table's slot arrays and one tuple of ≤ 3
	// allocations per slot ever used (under 4 × MaxBound slots, at
	// least 16); per partition: its key-sorted run and the run's values;
	// a constant for the pool and the merged result.
	slots := max(16, 4*ds.maxBound)
	bound := float64(workers*(8+3*slots) + 2*parts + 16)
	if allocs > bound {
		t.Fatalf("%v allocations for %d groups in %d partitions on %d workers, want ≤ %v", allocs, groups, parts, workers, bound)
	}
}
