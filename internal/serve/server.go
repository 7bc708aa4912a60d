package serve

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/dist"
	"repro/internal/dist/proc"
	"repro/internal/groupby"
	"repro/internal/obs"
	"repro/internal/sqlagg"
)

// Options configures a Server.
type Options struct {
	// MaxConcurrent caps the queries executing at once (default 4).
	MaxConcurrent int
	// MaxQueue caps the queries waiting for an execution slot beyond
	// the executing ones (default 64). A query arriving to a full queue
	// fails immediately with ErrOverloaded. Negative disables queueing:
	// every query that cannot start at once is ErrOverloaded.
	MaxQueue int
	// QueueTimeout bounds a queued query's wait for a slot (default
	// 2s); expiry fails the query with ErrQueueTimeout.
	QueueTimeout time.Duration
	// MemoryBudget caps one query's estimated working memory in bytes
	// (default 1 GiB; see Dataset.EstimateBytes). Estimates above it
	// fail with ErrOverBudget before execution. Negative disables the
	// check.
	MemoryBudget int
	// CacheEntries caps the result cache (default 256 entries).
	// Negative disables caching.
	CacheEntries int
	// Workers is the per-query engine parallelism (default GOMAXPROCS).
	Workers int
	// Distributed routes GROUP BY queries through the distributed tuple
	// plane over the pre-sharded layout instead of the local partitioned
	// engine. Window queries always run locally. The bits are identical
	// either way; this is a placement decision.
	Distributed bool
	// Dist configures the in-process distributed backend's interconnect
	// (transport factory, chunking, fault plan, …). To serve over worker
	// processes, pass a Cluster handle instead.
	Dist dist.Config
	// Cluster, when non-nil, routes distributed GROUP BY queries
	// through a long-lived multi-process cluster (internal/dist/proc)
	// instead of the in-process tuple plane: each query ships the
	// resident shards as one RowShards job and the cluster's canonical
	// result bytes are served directly. Implies Distributed. The
	// cluster is borrowed, not owned: Close leaves it running.
	Cluster *proc.Cluster
	// VerifyCache recomputes every cache hit and fails the query if the
	// cached bytes differ from the recomputation — the determinism
	// invariant checked at runtime. For tests and debugging; it defeats
	// the cache's purpose (hits pay a full execution).
	VerifyCache bool
	// TraceEntries caps the ring of retained per-query traces (default
	// 256). Negative disables tracing: queries record no spans and
	// Result.TraceID stays zero.
	TraceEntries int
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = 4
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 64
	}
	if o.QueueTimeout == 0 {
		o.QueueTimeout = 2 * time.Second
	}
	if o.MemoryBudget == 0 {
		o.MemoryBudget = 1 << 30
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 256
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.TraceEntries == 0 {
		o.TraceEntries = 256
	}
	return o
}

// Stats is a point-in-time snapshot of a server's counters.
type Stats struct {
	// Served counts successfully answered queries (hits included).
	Served uint64
	// CacheHits and CacheMisses split the served GROUP BY / window
	// queries by whether the result cache answered them.
	CacheHits   uint64
	CacheMisses uint64
	// RejectedBudget counts ErrOverBudget rejections, RejectedQueue
	// counts ErrOverloaded, RejectedTimeout counts ErrQueueTimeout.
	RejectedBudget  uint64
	RejectedQueue   uint64
	RejectedTimeout uint64
	// RejectedRecovering counts queries turned away (ErrOverloaded)
	// because the backing cluster was inside a recovery window —
	// replaying its journal or waiting for workers to re-attach. Cache
	// hits are still served through such a window.
	RejectedRecovering uint64
	// Inflight is the number of queries executing right now;
	// PeakInflight the highest concurrency the server has sustained.
	Inflight     int64
	PeakInflight int64
	// CacheEntries is the current result-cache population.
	CacheEntries int
}

// Server is a long-lived query server over one resident Dataset. It is
// safe for concurrent use: any number of goroutines may call Do at
// once; admission control bounds how many execute simultaneously.
type Server struct {
	ds  *Dataset
	opt Options

	// The distributed backend's input: one contiguous view of the
	// dataset's rows per node (Dataset.Shards of them in process, the
	// cluster's size on a Cluster).
	shardKeys [][]uint32
	shardCols [][][]float64

	slots  chan struct{} // execution-slot semaphore (cap MaxConcurrent)
	queued atomic.Int64  // queries waiting for a slot

	cache *resultCache

	// reg is this server's private metric registry (see Registry):
	// per-server, because one process may run many servers and their
	// counts must not bleed into each other. met holds the pre-resolved
	// handles the hot path records through.
	reg    *obs.Registry
	met    serveMetrics
	traces *obs.TraceStore // nil when tracing is disabled

	closed    chan struct{}
	closeOnce sync.Once

	// execGate, when non-nil, runs at the top of every admitted
	// execution — a test hook for holding queries in flight.
	execGate func()
}

// Query outcome labels. Every Do call ends in exactly one of them, so
// serve_queries_total always equals the serve_queries_outcome_total
// family's sum — the consistency invariant the metrics tests (and the
// nightly sweep's /metrics scrape) check under full concurrency.
const (
	outHit           = "hit"
	outExecuted      = "executed"
	outRejBudget     = "rejected_budget"
	outRejOverload   = "rejected_overload"
	outRejTimeout    = "rejected_timeout"
	outRejRecovering = "rejected_recovering"
	outError         = "error"
	outClosed        = "closed"
	outInvalid       = "invalid"
)

var outcomeNames = []string{
	outHit, outExecuted, outRejBudget, outRejOverload, outRejTimeout,
	outRejRecovering, outError, outClosed, outInvalid,
}

// serveMetrics is a server's pre-resolved handles into its registry.
type serveMetrics struct {
	queries     *obs.Counter
	outcomes    map[string]*obs.Counter
	cacheMisses *obs.Counter
	queueWait   *obs.Histogram
	execSecs    *obs.Histogram
	inflight    *obs.Gauge
	peak        *obs.Gauge
}

func newServeMetrics(r *obs.Registry) serveMetrics {
	m := serveMetrics{
		queries: r.Counter("serve_queries_total",
			"Queries received by Do, whatever their fate."),
		outcomes: make(map[string]*obs.Counter, len(outcomeNames)),
		cacheMisses: r.Counter("serve_cache_misses_total",
			"Executed queries whose result filled the cache."),
		queueWait: r.Histogram("serve_queue_wait_seconds",
			"Admission wait from arrival at the gate to holding an execution slot.", nil),
		execSecs: r.Histogram("serve_exec_seconds",
			"Backend execution latency of admitted queries.", nil),
		inflight: r.Gauge("serve_inflight",
			"Queries executing right now."),
		peak: r.Gauge("serve_inflight_peak",
			"Highest execution concurrency this server has sustained."),
	}
	for _, o := range outcomeNames {
		m.outcomes[o] = r.Counter(`serve_queries_outcome_total{outcome="`+o+`"}`,
			"Queries by final outcome; the family sums to serve_queries_total.")
	}
	return m
}

// NewServer starts a server over ds. The dataset must outlive the
// server and stay unmutated.
func NewServer(ds *Dataset, opts Options) (*Server, error) {
	if ds == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrDataset)
	}
	o := opts.withDefaults()
	if o.MaxConcurrent < 0 {
		return nil, fmt.Errorf("%w: MaxConcurrent %d", ErrDataset, o.MaxConcurrent)
	}
	if o.Cluster != nil {
		o.Distributed = true
	}
	reg := obs.NewRegistry()
	s := &Server{
		ds:     ds,
		opt:    o,
		slots:  make(chan struct{}, o.MaxConcurrent),
		reg:    reg,
		met:    newServeMetrics(reg),
		closed: make(chan struct{}),
	}
	nodes := ds.shards
	if o.Cluster != nil {
		nodes = o.Cluster.Nodes()
	}
	s.shardKeys, s.shardCols = ds.views(nodes)
	if o.TraceEntries > 0 {
		s.traces = obs.NewTraceStore(o.TraceEntries)
	}
	if o.CacheEntries > 0 {
		s.cache = newResultCache(o.CacheEntries)
	}
	return s, nil
}

// Dataset returns the server's resident data.
func (s *Server) Dataset() *Dataset { return s.ds }

// Stats returns a snapshot of the server's counters. They are read
// from the same registry Registry exposes; Stats is the typed view,
// the registry the enumerable one.
func (s *Server) Stats() Stats {
	st := Stats{
		Served:             s.met.outcomes[outHit].Value() + s.met.outcomes[outExecuted].Value(),
		CacheHits:          s.met.outcomes[outHit].Value(),
		CacheMisses:        s.met.cacheMisses.Value(),
		RejectedBudget:     s.met.outcomes[outRejBudget].Value(),
		RejectedQueue:      s.met.outcomes[outRejOverload].Value(),
		RejectedTimeout:    s.met.outcomes[outRejTimeout].Value(),
		RejectedRecovering: s.met.outcomes[outRejRecovering].Value(),
		Inflight:           s.met.inflight.Value(),
		PeakInflight:       s.met.peak.Value(),
	}
	if s.cache != nil {
		st.CacheEntries = s.cache.len()
	}
	return st
}

// Registry exposes the server's private metric registry: the outcome
// counters, latency histograms, and inflight gauges behind Stats, in
// scrapeable form (obs.Handler serves it as Prometheus text).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Trace returns the recorded trace behind a Result.TraceID, or nil if
// tracing is disabled, the ID was never assigned, or the ring evicted
// it.
func (s *Server) Trace(id uint64) *obs.Trace {
	if s.traces == nil {
		return nil
	}
	return s.traces.Get(id)
}

// Close shuts the server down: queued queries fail with
// ErrServerClosed, new queries are rejected. Idempotent. In-flight
// executions run to completion (their callers still hold slots).
func (s *Server) Close() error {
	s.closeOnce.Do(func() { close(s.closed) })
	return nil
}

// Do answers one query. The pipeline is: validate and canonically
// encode; price the query against the memory budget (ErrOverBudget);
// consult the result cache; admit (bounded slots, bounded queue with
// timeout — ErrOverloaded / ErrQueueTimeout); execute on the selected
// backend; cache and return the canonical result bytes.
//
// Cache hits are answered without taking an execution slot: a hit does
// no data work, so making it wait behind executing queries would only
// add latency. Budget pricing still runs first — whether a query is
// answerable is a property of the query, not of the cache's mood.
//
// Every call ends in exactly one outcome counter (the do return value
// names it), which is what makes the metrics sum-consistent under any
// concurrency; the per-query trace records the same pipeline as spans
// with the digest of the canonical bytes each hop observed.
func (s *Server) Do(q Query) (*Result, error) {
	s.met.queries.Inc()
	var tr *obs.Trace
	if s.traces != nil {
		tr = s.traces.NewTrace(traceName(q))
	}
	res, outcome, err := s.do(q, tr)
	s.met.outcomes[outcome].Inc()
	if tr != nil {
		tr.SetOutcome(outcome)
		if res != nil {
			res.TraceID = tr.ID
		}
	}
	return res, err
}

// traceName labels a query's trace by its kind.
func traceName(q Query) string {
	switch q.Kind {
	case QueryGroupBy:
		return "groupby"
	case QueryWindowTotals:
		return "window"
	default:
		return "unknown"
	}
}

// execOutcome classifies an admission/execution error into its outcome
// label.
func execOutcome(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded):
		return outRejOverload
	case errors.Is(err, ErrQueueTimeout):
		return outRejTimeout
	case errors.Is(err, ErrServerClosed):
		return outClosed
	default:
		return outError
	}
}

// do is Do's single-exit-classified body: every return names the
// query's final outcome. tr may be nil (span recording no-ops).
func (s *Server) do(q Query, tr *obs.Trace) (*Result, string, error) {
	select {
	case <-s.closed:
		return nil, outClosed, ErrServerClosed
	default:
	}

	adm := tr.Start("admission")
	if err := q.validate(s.ds.Cols()); err != nil {
		adm.End(nil, err.Error())
		return nil, outInvalid, err
	}
	enc, err := q.Encode()
	if err != nil {
		adm.End(nil, err.Error())
		return nil, outInvalid, err
	}
	// The admission digest fingerprints the canonical query encoding:
	// two traces of the same query anchor at the same digest, so a
	// later divergence is provably downstream of admission.
	adm.End(enc, "")

	if s.opt.MemoryBudget >= 0 {
		sp := tr.Start("budget")
		est, err := s.ds.EstimateBytes(q)
		if err != nil {
			sp.End(nil, err.Error())
			return nil, outInvalid, err
		}
		over := est > s.opt.MemoryBudget
		if tr != nil { // the note is the only cost of this span; skip it untraced
			note := fmt.Sprintf("estimate %d bytes", est)
			if over {
				note += fmt.Sprintf(" over budget %d", s.opt.MemoryBudget)
			}
			sp.End(nil, note)
		}
		if over {
			return nil, outRejBudget, fmt.Errorf("%w: estimated %d bytes over budget %d (distinct-key bound %d)",
				ErrOverBudget, est, s.opt.MemoryBudget, s.ds.DistinctBound())
		}
	}

	key := cacheKey(s.ds.version, enc)
	if s.cache != nil {
		sp := tr.Start("cache")
		if cached, ok := s.cache.get(key); ok {
			if s.opt.VerifyCache {
				fresh, err := s.admitAndExecute(q, tr)
				if err != nil {
					sp.End(nil, err.Error())
					return nil, execOutcome(err), err
				}
				if !bytes.Equal(cached, fresh) {
					sp.End(cached, "verify diverged")
					return nil, outError, fmt.Errorf("serve: cache hit diverged from recomputation for query %x — determinism invariant broken", enc)
				}
			}
			sp.End(cached, "hit")
			return &Result{Query: q, Version: s.ds.version, Bytes: cached, CacheHit: true}, outHit, nil
		}
		sp.End(nil, "miss")
	}

	// Graceful degradation: while the backing cluster is inside a
	// recovery window (journal replay, workers re-attaching after a
	// supervisor restart) new cluster-bound work is turned away as
	// overloaded — retryable, the HTTP layer answers 503 + Retry-After —
	// rather than queued into a replacement timeout. Cache hits were
	// already served above; the gate lifts on its own once the previous
	// members have all re-attached. Recovering (not !Ready) is the
	// predicate on purpose: a cluster that is merely still forming for
	// the first time should queue normally, not shed.
	if q.Kind == QueryGroupBy && s.opt.Cluster != nil && s.opt.Cluster.Recovering() {
		return nil, outRejRecovering, fmt.Errorf("%w: cluster recovering, workers re-attaching", ErrOverloaded)
	}

	out, err := s.admitAndExecute(q, tr)
	if err != nil {
		if q.Kind == QueryGroupBy && s.opt.Cluster != nil && errors.Is(err, proc.ErrRecovering) {
			// The recovery window opened mid-flight: same retryable verdict.
			return nil, outRejRecovering, fmt.Errorf("%w: %v", ErrOverloaded, err)
		}
		return nil, execOutcome(err), err
	}
	if s.cache != nil {
		sp := tr.Start("cache-fill")
		s.cache.put(key, out)
		s.met.cacheMisses.Inc()
		sp.End(out, "")
	}
	return &Result{Query: q, Version: s.ds.version, Bytes: out}, outExecuted, nil
}

// admitAndExecute runs the admission gate, then executes q on the
// configured backend and returns the canonical result bytes.
func (s *Server) admitAndExecute(q Query, tr *obs.Trace) ([]byte, error) {
	wait := tr.Start("queue")
	waitStart := time.Now()
	select {
	case s.slots <- struct{}{}:
		// Free slot: start immediately.
	default:
		// All slots busy: join the bounded wait queue.
		if s.queued.Add(1) > int64(s.opt.MaxQueue) {
			s.queued.Add(-1)
			wait.End(nil, "queue full")
			return nil, fmt.Errorf("%w: %d executing, %d queued", ErrOverloaded, s.opt.MaxConcurrent, s.opt.MaxQueue)
		}
		timer := time.NewTimer(s.opt.QueueTimeout)
		select {
		case s.slots <- struct{}{}:
			s.queued.Add(-1)
			timer.Stop()
		case <-timer.C:
			s.queued.Add(-1)
			wait.End(nil, "timed out")
			return nil, fmt.Errorf("%w after %v", ErrQueueTimeout, s.opt.QueueTimeout)
		case <-s.closed:
			s.queued.Add(-1)
			timer.Stop()
			wait.End(nil, "server closed")
			return nil, ErrServerClosed
		}
	}
	defer func() { <-s.slots }()
	s.met.queueWait.Observe(time.Since(waitStart).Seconds())
	wait.End(nil, "")

	cur := s.met.inflight.Add(1)
	s.met.peak.Max(cur)
	defer s.met.inflight.Add(-1)

	if s.execGate != nil {
		s.execGate()
	}
	sp := tr.Start("execute")
	execStart := time.Now()
	out, err := s.execute(q, tr)
	s.met.execSecs.Observe(time.Since(execStart).Seconds())
	if err != nil {
		sp.End(nil, err.Error())
		return nil, err
	}
	sp.End(out, "")
	return out, nil
}

// execute runs q on the selected backend. Every path ends in the same
// canonical encoding, so backends are interchangeable bit for bit.
// The trace (nil-safe) receives the backend's hop digests: the dist
// plane reports "shuffle" and "gather" from the root node, and every
// GROUP BY path records "merge" over the final canonical bytes — so
// two traces of the same query localize a divergence to the first hop
// whose digest disagrees (obs.FirstDivergence).
func (s *Server) execute(q Query, tr *obs.Trace) ([]byte, error) {
	switch q.Kind {
	case QueryGroupBy:
		var out []byte
		if s.opt.Cluster != nil {
			// The cluster's result payload already is the canonical
			// encoding every other backend produces — serve it as-is.
			res, err := s.opt.Cluster.Run(proc.Job{
				Workers: s.opt.Workers,
				Specs:   q.Specs,
				Source:  proc.RowShards(s.shardKeys, s.shardCols),
			})
			if err != nil {
				return nil, fmt.Errorf("serve: group by: %w", err)
			}
			out = res.Payload
		} else {
			var gs []dist.TupleGroup
			var err error
			if s.opt.Distributed {
				cfg := s.opt.Dist
				if tr != nil {
					cfg.Trace = tr.Hop
				}
				gs, err = dist.AggregateTuplesConfig(s.shardKeys, s.shardCols, s.opt.Workers, q.Specs, cfg)
			} else {
				gs, err = s.groupByLocal(q.Specs)
			}
			if err != nil {
				return nil, fmt.Errorf("serve: group by: %w", err)
			}
			out = dist.EncodeTupleGroups(gs, len(q.Specs))
		}
		if tr != nil { // hash the result only when a trace will carry it
			tr.Hop("merge", obs.FNV64a(out))
		}
		return out, nil
	case QueryWindowTotals:
		// Window totals run on the serving node for every backend: the
		// output is row-aligned, and its per-key totals come from the
		// same reproducible states, so the bits match regardless.
		totals := sqlagg.WindowTotals(s.ds.keys, s.ds.cols[q.Col], resolvedLevels(q.Levels))
		return encodeTotals(totals), nil
	default:
		return nil, fmt.Errorf("%w: unknown query kind %d", ErrBadQuery, byte(q.Kind))
	}
}

// groupByLocal is the local GROUP BY engine: agg's partition loop over
// the resident partitions — the same table, plan and row fold the
// distributed plane runs — with one table per worker and summation
// buffers planned from the dataset's rows per key, so a query allocates
// O(workers + groups), not O(partitions × groups). Each partition's run
// comes out of its table in key order and the partitions are ascending
// key ranges, so their concatenation is the key-sorted result. The
// result bits are identical to the distributed plane's: the aggregate
// states are order-independent, so it does not matter which backend
// folded which row first.
func (s *Server) groupByLocal(specs []sqlagg.AggSpec) ([]dist.TupleGroup, error) {
	plan, err := sqlagg.NewTuplePlan(specs)
	if err != nil {
		return nil, err
	}
	ds := s.ds
	_, bsz := groupby.Layout(plan, ds.maxBound, ds.Rows()/ds.sumBound)
	runs := make([][]dist.TupleGroup, len(ds.parts))
	agg.AggregateParts(ds.parts, s.opt.Workers,
		func(bound int) *groupby.Table { return groupby.NewTable(plan, bound, bsz) },
		(*groupby.Table).AddPart,
		func(p int, t *groupby.Table) { runs[p] = t.Groups() })
	return slices.Concat(runs...), nil
}

// cacheKey prefixes the canonical query encoding with the dataset
// version: a result is a pure function of exactly that pair.
func cacheKey(version uint64, enc []byte) string {
	k := make([]byte, 8+len(enc))
	for i := 0; i < 8; i++ {
		k[i] = byte(version >> (8 * i))
	}
	copy(k[8:], enc)
	return string(k)
}

// resultCache is a bounded map from (version, query) to canonical
// result bytes with FIFO eviction — recency tracking buys nothing when
// every entry is equally valid forever (the dataset is immutable;
// entries never go stale, they only compete for space).
type resultCache struct {
	mu    sync.Mutex
	max   int
	m     map[string][]byte
	order []string
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, m: make(map[string][]byte, max)}
}

func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *resultCache) put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[key]; dup {
		return // a concurrent miss already stored the identical bytes
	}
	if len(c.m) >= c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.m, oldest)
	}
	c.m[key] = val
	c.order = append(c.order, key)
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
