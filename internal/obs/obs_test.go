package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("c_total", "ignored"); again != c {
		t.Fatal("re-registration returned a different handle")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	g.Max(2) // below current: no-op
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	g.Max(10)
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge after Max = %d, want 10", got)
	}

	h := r.Histogram("h_seconds", "a histogram", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 50, 0.25} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count = %d, want 4", h.Count())
	}
	if h.Sum() != 55.75 {
		t.Fatalf("histogram sum = %v, want 55.75", h.Sum())
	}
}

func TestRegistryTypeClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as a gauge after a counter did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestSnapshotAndValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(3)
	r.Gauge("b", "").Set(-2)
	r.Histogram("lat_seconds", "", []float64{1}).Observe(0.5)
	r.Counter(`peer_bytes_total{peer="0"}`, "").Add(10)
	r.Counter(`peer_bytes_total{peer="1"}`, "").Add(20)

	s := r.Snapshot()
	if s["a_total"] != 3 || s["b"] != -2 {
		t.Fatalf("snapshot scalars wrong: %v", s)
	}
	if s["lat_seconds_count"] != 1 || s["lat_seconds_sum"] != 0.5 {
		t.Fatalf("snapshot histogram wrong: %v", s)
	}
	if got := s.Sum("peer_bytes_total"); got != 30 {
		t.Fatalf("label-family sum = %v, want 30", got)
	}
	if v, ok := r.Value("a_total"); !ok || v != 3 {
		t.Fatalf("Value(a_total) = %v, %v", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Fatal("Value(missing) reported ok")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("repro_q_total", "queries").Add(5)
	r.Gauge("repro_inflight", "in flight").Set(2)
	r.Histogram("repro_lat_seconds", "latency", []float64{0.1, 1}).Observe(0.05)
	r.Counter(`repro_peer_total{peer="1"}`, "per peer").Add(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE repro_q_total counter",
		"repro_q_total 5",
		"# TYPE repro_inflight gauge",
		"repro_inflight 2",
		"# TYPE repro_lat_seconds histogram",
		`repro_lat_seconds_bucket{le="0.1"} 1`,
		`repro_lat_seconds_bucket{le="+Inf"} 1`,
		"repro_lat_seconds_sum 0.05",
		"repro_lat_seconds_count 1",
		`repro_peer_total{peer="1"} 9`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRecordZeroAlloc pins the zero-allocation contract of the hot
// record operations — the same discipline the shuffle encode path is
// held to. AllocsPerRun is meaningless under the race detector's
// instrumented allocator, so the pin is skipped there.
func TestRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not meaningful under -race")
	}
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 2, 4, 8})
	if allocs := testing.AllocsPerRun(200, func() {
		c.Add(1)
		g.Set(3)
		g.Max(5)
		h.Observe(3.5)
	}); allocs != 0 {
		t.Fatalf("record operations allocated %v times per run, want 0", allocs)
	}
}

// TestRegistryConcurrent hammers registration and recording from many
// goroutines — the -race regression test that replaces the deleted
// engine.Profiler scaffolding (the profiler is now backed by this
// registry).
func TestRegistryConcurrent(t *testing.T) {
	const goroutines, rounds = 16, 200
	r := NewRegistry()
	shared := r.Counter("shared_total", "")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := r.Counter("own_total"+string(rune('a'+g)), "")
			hist := r.Histogram("lat", "", nil)
			for i := 0; i < rounds; i++ {
				shared.Inc()
				own.Inc()
				hist.Observe(0.001)
				_ = r.Snapshot()
				_, _ = r.Value("shared_total")
			}
		}(g)
	}
	wg.Wait()
	if got := shared.Value(); got != goroutines*rounds {
		t.Fatalf("shared counter = %d, want %d", got, goroutines*rounds)
	}
	if got, _ := r.Value("lat"); got != goroutines*rounds {
		t.Fatalf("histogram count = %v, want %d", got, goroutines*rounds)
	}
}

func TestTraceAndFirstDivergence(t *testing.T) {
	s := NewTraceStore(2)
	a := s.NewTrace("q1")
	sp := a.Start("admission")
	sp.End([]byte("enc"), "")
	a.Hop("shuffle", 0x1111)
	a.Hop("gather", 0x2222)
	a.Hop("merge", 0x3333)

	b := s.NewTrace("q1")
	b.Start("admission").End([]byte("enc"), "")
	b.Hop("shuffle", 0x1111)
	b.Hop("gather", 0xBAD)
	b.Hop("merge", 0xBAD2)

	if got := FirstDivergence(a, b); got != "gather" {
		t.Fatalf("first divergence = %q, want gather", got)
	}
	if got := FirstDivergence(a, a); got != "" {
		t.Fatalf("self-divergence = %q, want none", got)
	}

	if s.Get(a.ID) != a || s.Get(b.ID) != b {
		t.Fatal("store lookup failed")
	}
	c := s.NewTrace("q2") // capacity 2: evicts a
	if s.Get(a.ID) != nil {
		t.Fatal("oldest trace not evicted")
	}
	if s.Get(c.ID) != c {
		t.Fatal("newest trace missing")
	}
	if !(a.ID < b.ID && b.ID < c.ID) {
		t.Fatalf("trace IDs not increasing: %d %d %d", a.ID, b.ID, c.ID)
	}
}

func TestEventLog(t *testing.T) {
	l := NewEventLog(3)
	for i := 0; i < 5; i++ {
		l.Append("join", i, "")
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if want := uint64(3 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d (monotonic, oldest evicted)", i, e.Seq, want)
		}
	}
	if l.LastSeq() != 5 {
		t.Fatalf("last seq = %d, want 5", l.LastSeq())
	}
	var nilLog *EventLog
	if nilLog.Append("x", 0, "") != 0 || nilLog.Events() != nil || nilLog.LastSeq() != 0 {
		t.Fatal("nil log is not inert")
	}
}

func TestEventLogConcurrentSeqs(t *testing.T) {
	l := NewEventLog(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append("e", -1, "")
			}
		}()
	}
	wg.Wait()
	evs := l.Events()
	if len(evs) != 800 {
		t.Fatalf("got %d events, want 800", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("sequence gap: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", nil)
	h.Observe(0.0002)
	h.Observe(200) // beyond the last bound: +Inf bucket
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `lat_seconds_bucket{le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket not cumulative:\n%s", sb.String())
	}
}

func TestSpanTimings(t *testing.T) {
	store := NewTraceStore(1)
	tr := store.NewTrace("q")
	sp := tr.Start("work")
	time.Sleep(time.Millisecond)
	sp.End(nil, "note")
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Dur < time.Millisecond/2 {
		t.Fatalf("span not recorded with a plausible duration: %+v", spans)
	}
	// A nil trace's handles are inert.
	var nt *Trace
	nt.Hop("x", 1)
	SpanHandle{}.End(nil, "")
}
