package obs

import (
	"fmt"
	"sync"
	"time"
)

// The trace model: one Trace per served query, one Span per pipeline
// hop (admission, budget pricing, cache lookup, queue wait, backend
// execution, shuffle, gather, merge, cache fill). Spans carry the
// digest of the canonical bytes visible at that hop, which is what
// makes a cross-backend divergence localizable: two traces of the
// same query agree digest-for-digest up to the first hop where the
// executions genuinely diverged, so FirstDivergence names the guilty
// hop instead of leaving a whole pipeline under suspicion.

// Span is one step of a traced query.
type Span struct {
	// Name identifies the hop ("admission", "execute/local",
	// "shuffle", …). Names repeat across traces of different queries
	// but not within one trace's digest-carrying spans.
	Name string `json:"name"`
	// Start is the offset from the trace's Begin; Dur the span's
	// duration. Hop spans reported after the fact (the dist plane's
	// shuffle/gather digests) may carry a zero duration.
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	// Digest fingerprints the canonical bytes this hop observed
	// (FNV-64a, hex), "" for spans with nothing canonical to see.
	Digest string `json:"digest,omitempty"`
	// Note is free-form hop detail ("hit", "est 128 bytes", an error).
	Note string `json:"note,omitempty"`
}

// Trace is one served query's recorded pipeline.
type Trace struct {
	ID      uint64    `json:"id"`
	Name    string    `json:"name"`
	Begin   time.Time `json:"begin"`
	Outcome string    `json:"outcome,omitempty"`

	mu    sync.Mutex
	spans []Span
}

// Add appends a finished span. Safe for concurrent use: the dist
// plane's root node reports hop digests while the serving goroutine
// owns the trace.
func (t *Trace) Add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Start opens a span; the returned SpanHandle's End records it.
func (t *Trace) Start(name string) SpanHandle {
	return SpanHandle{t: t, name: name, start: time.Now()}
}

// Hop records an instantaneous digest-carrying span — the form the
// dist plane's shuffle/gather/merge hooks use.
func (t *Trace) Hop(name string, digest uint64) {
	if t == nil {
		return
	}
	t.Add(Span{Name: name, Start: time.Since(t.Begin), Digest: HexDigest(digest)})
}

// Spans returns the recorded spans in completion order.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SetOutcome records how the query ended ("executed", "hit",
// "rejected_budget", …).
func (t *Trace) SetOutcome(outcome string) {
	t.mu.Lock()
	t.Outcome = outcome
	t.mu.Unlock()
}

// SpanHandle is an open span returned by Trace.Start.
type SpanHandle struct {
	t     *Trace
	name  string
	start time.Time
}

// End records the span with the digest of the canonical bytes the hop
// observed (nil for a hop with nothing canonical to see) and a note
// (may be empty). Ending a handle from a nil trace is a no-op that
// hashes nothing, so callers can trace unconditionally and a server
// with tracing off pays no pass over its result bytes.
func (h SpanHandle) End(canonical []byte, note string) {
	if h.t == nil {
		return
	}
	sp := Span{Name: h.name, Start: h.start.Sub(h.t.Begin), Dur: time.Since(h.start), Note: note}
	if canonical != nil {
		sp.Digest = DigestOf(canonical)
	}
	h.t.Add(sp)
}

// FirstDivergence compares two traces of the same query span-by-span
// and returns the name of the first digest-carrying hop present in
// both whose digests differ — the hop where the executions genuinely
// parted ways (every later hop differs only by propagation). It
// returns "" when no shared hop disagrees.
func FirstDivergence(a, b *Trace) string {
	bd := make(map[string]string)
	for _, s := range b.Spans() {
		if s.Digest != "" {
			if _, seen := bd[s.Name]; !seen {
				bd[s.Name] = s.Digest
			}
		}
	}
	for _, s := range a.Spans() {
		if s.Digest == "" {
			continue
		}
		if other, ok := bd[s.Name]; ok && other != s.Digest {
			return s.Name
		}
	}
	return ""
}

// traceView is the JSON shape of a trace (the mutex-guarded spans
// slice needs an explicit copy).
type traceView struct {
	ID      uint64    `json:"id"`
	Name    string    `json:"name"`
	Begin   time.Time `json:"begin"`
	Outcome string    `json:"outcome,omitempty"`
	Spans   []Span    `json:"spans"`
}

// View returns a copyable, JSON-encodable snapshot of the trace.
func (t *Trace) View() any {
	t.mu.Lock()
	defer t.mu.Unlock()
	return traceView{
		ID: t.ID, Name: t.Name, Begin: t.Begin, Outcome: t.Outcome,
		Spans: append([]Span(nil), t.spans...),
	}
}

// TraceStore is a bounded ring of recent traces, keyed by the
// monotonically increasing trace ID it assigns.
type TraceStore struct {
	mu     sync.Mutex
	cap    int
	nextID uint64
	byID   map[uint64]*Trace
	order  []uint64
}

// NewTraceStore returns a store retaining the most recent capacity
// traces (minimum 1).
func NewTraceStore(capacity int) *TraceStore {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceStore{cap: capacity, byID: make(map[uint64]*Trace, capacity)}
}

// NewTrace starts recording a trace under a fresh ID, evicting the
// oldest retained trace when full.
func (s *TraceStore) NewTrace(name string) *Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	t := &Trace{ID: s.nextID, Name: name, Begin: time.Now()}
	if len(s.order) >= s.cap {
		delete(s.byID, s.order[0])
		s.order = s.order[1:]
	}
	s.byID[t.ID] = t
	s.order = append(s.order, t.ID)
	return t
}

// Get returns the trace with the given ID, or nil if it was never
// assigned or has been evicted.
func (s *TraceStore) Get(id uint64) *Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// FNV64a is the repo's digest function (FNV-64a over the canonical
// bytes) — the same fingerprint reproserve reports per response.
func FNV64a(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// HexDigest formats a digest the way every surface prints it.
func HexDigest(d uint64) string { return fmt.Sprintf("%016x", d) }

// DigestOf fingerprints canonical bytes directly to the printed form.
func DigestOf(b []byte) string { return HexDigest(FNV64a(b)) }
