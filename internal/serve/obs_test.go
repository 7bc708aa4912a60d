package serve

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/sqlagg"
)

// TestMetricsConsistencyUnderConcurrency is the serving layer's metric
// invariant under full concurrency: after a mixed barrage — successes,
// cache hits, invalid queries, overload and timeout rejections, and
// post-close rejections racing from many goroutines — every received
// query landed in exactly one outcome counter, so serve_queries_total
// equals the serve_queries_outcome_total family's sum and the issued
// count. Run under -race in CI; this is the same check the nightly
// sweep applies to a live /metrics scrape.
func TestMetricsConsistencyUnderConcurrency(t *testing.T) {
	ds := testDataset(t, 1<<9, 32, 2)
	s := mustServer(t, ds, Options{
		MaxConcurrent: 2,
		MaxQueue:      2,
		QueueTimeout:  5 * time.Millisecond,
		CacheEntries:  8,
	})
	// A little execution latency makes the queue fill and time out, so
	// the barrage genuinely exercises the rejection outcomes too.
	s.execGate = func() { time.Sleep(200 * time.Microsecond) }

	queries := []Query{
		GroupBy(sqlagg.AggSpec{Kind: sqlagg.AggSum, Col: 0}),
		WindowTotals(1, 0),
		{Kind: 77}, // invalid: unknown kind
		GroupBy(),  // invalid: no aggregates
	}
	const goroutines, perG = 16, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, _ = s.Do(queries[(g+i)%len(queries)])
			}
		}(g)
	}
	wg.Wait()

	// A few queries against the closed server land in the "closed"
	// outcome — still inside the invariant.
	const afterClose = 3
	s.Close()
	for i := 0; i < afterClose; i++ {
		_, _ = s.Do(queries[0])
	}

	snap := s.Registry().Snapshot()
	total := snap["serve_queries_total"]
	if want := float64(goroutines*perG + afterClose); total != want {
		t.Fatalf("serve_queries_total = %v, want %v issued", total, want)
	}
	if byOutcome := snap.Sum("serve_queries_outcome_total{"); byOutcome != total {
		t.Fatalf("outcome family sums to %v, want serve_queries_total %v", byOutcome, total)
	}
	for _, outcome := range []string{outExecuted, outInvalid, outClosed} {
		if snap[`serve_queries_outcome_total{outcome="`+outcome+`"}`] == 0 {
			t.Fatalf("barrage never produced outcome %q — the mix is not exercising the classifier", outcome)
		}
	}
	// The typed Stats view reads the same registry: spot-check the
	// mapping.
	st := s.Stats()
	if float64(st.Served) != snap[`serve_queries_outcome_total{outcome="hit"}`]+snap[`serve_queries_outcome_total{outcome="executed"}`] {
		t.Fatalf("Stats.Served %d disagrees with the outcome counters", st.Served)
	}
}

// tamperTransport corrupts the first non-empty gather payload node 1
// sends toward the root — undetectably from the wire's point of view
// (ChanTransport passes frames by reference; there is no CRC to
// recompute, and the flipped byte lands in an aggregate's float64, so
// the payload still decodes). Every frame leaves through Send, so the
// wrapper sees each gather chunk.
type tamperTransport struct {
	dist.Transport
	once sync.Once
}

func (t *tamperTransport) Send(f dist.Frame) error {
	if f.Kind == dist.KindGather && f.From == 1 && len(f.Payload) > 0 {
		t.once.Do(func() {
			p := append([]byte(nil), f.Payload...)
			p[len(p)-1] ^= 0x40 // an exponent bit of the last aggregate
			f.Payload = p
		})
	}
	return t.Transport.Send(f)
}

// TestDigestProvenance is the trace model's core claim: when one
// backend execution diverges, comparing its trace against a clean
// trace of the same query localizes the fault to the first hop whose
// span digest disagrees — here the gather hop, because the corruption
// was injected into a gather frame after a byte-identical shuffle.
func TestDigestProvenance(t *testing.T) {
	ds := testDataset(t, 1<<12, 256, 2)
	q := GroupBy(testSpecs()...)

	run := func(opts Options) (*Result, *obs.Trace) {
		t.Helper()
		s := mustServer(t, ds, opts)
		r, err := s.Do(q)
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		tr := s.Trace(r.TraceID)
		if tr == nil {
			t.Fatalf("no trace recorded for id %d", r.TraceID)
		}
		return r, tr
	}

	clean, trClean := run(Options{Distributed: true, CacheEntries: -1})
	tampered, trTampered := run(Options{
		Distributed:  true,
		CacheEntries: -1,
		Dist: dist.Config{NewTransport: func(n int) (dist.Transport, error) {
			inner, err := dist.ChanTransportFactory(n)
			if err != nil {
				return nil, err
			}
			return &tamperTransport{Transport: inner}, nil
		}},
	})

	if bytes.Equal(clean.Bytes, tampered.Bytes) {
		t.Fatal("tampering with a gather frame did not change the result")
	}
	if hop := obs.FirstDivergence(trTampered, trClean); hop != "gather" {
		t.Fatalf("FirstDivergence = %q, want %q (the hop the corruption entered)", hop, "gather")
	}

	// The shuffle digests must agree: the divergence is provably
	// downstream of the shuffle, which is exactly what exonerates it.
	digest := func(tr *obs.Trace, name string) string {
		t.Helper()
		for _, sp := range tr.Spans() {
			if sp.Name == name && sp.Digest != "" {
				return sp.Digest
			}
		}
		t.Fatalf("trace %d has no digest-carrying %q span", tr.ID, name)
		return ""
	}
	if a, b := digest(trClean, "shuffle"), digest(trTampered, "shuffle"); a != b {
		t.Fatalf("shuffle digests diverge (%s vs %s); corruption was injected at gather", a, b)
	}
	if a, b := digest(trClean, "merge"), digest(trTampered, "merge"); a == b {
		t.Fatal("merge digests agree despite divergent results")
	}

	// Identical clean executions agree on every hop.
	clean2, trClean2 := run(Options{Distributed: true, CacheEntries: -1})
	if !bytes.Equal(clean.Bytes, clean2.Bytes) {
		t.Fatal("clean reruns disagree — determinism broken independent of tracing")
	}
	if hop := obs.FirstDivergence(trClean, trClean2); hop != "" {
		t.Fatalf("clean reruns diverge at %q", hop)
	}
}
