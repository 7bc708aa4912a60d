package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/sqlagg"
	"repro/internal/workload"
)

// queryMix is the space of equal-cost canonical queries a serve loop draws
// from: GROUP BY (SUM a, AVG b, COUNT) for every pair of distinct columns
// (a, b) in each of the six spec orders — 336 queries over 8 columns. a != b
// so that the plain engine, which sums a column once however many aggregates
// read it, also does the same work for every query (one column alone pairs
// with itself). The first hot() of them are the hot set; the others are
// handed out cyclically as fresh ones.
type queryMix struct{ ncols int }

var specOrders = [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

func (m queryMix) size() int { return max(1, m.ncols*(m.ncols-1)) * len(specOrders) }

func (m queryMix) hot() int { return min(8, m.size()/2) }

func (m queryMix) query(idx int) repro.ServeQuery {
	order := specOrders[idx%len(specOrders)]
	pair := idx / len(specOrders)
	a, b := 0, 0
	if m.ncols > 1 {
		a, b = pair/(m.ncols-1), pair%(m.ncols-1)
		if b >= a {
			b++ // skip b == a
		}
	}
	three := [3]sqlagg.AggSpec{
		{Kind: sqlagg.AggSum, Col: a},
		{Kind: sqlagg.AggAvg, Col: b},
		{Kind: sqlagg.AggCount},
	}
	return repro.GroupByQuery(three[order[0]], three[order[1]], three[order[2]])
}

// freshShare is the share of traffic that asks a query outside the hot set.
const freshShare = 8 // one in eight

// schedule says what client c's i-th query is: fresh one time in eight,
// else the hot query pick%hot. It is a pure function of (seed, c, i), so
// every run with one seed offers the same traffic.
func schedule(seed uint64, client, i int) (fresh bool, pick uint64) {
	r := workload.NewRNG(seed ^ uint64(client+1)*0x9E3779B97F4A7C15 ^ uint64(i+1)*0xC2B2AE3D27D4EB4F).Uint64()
	return r%freshShare == 0, r >> 8
}

// serveRig is a query server over one resident dataset plus the closed
// loop that drives it. serve_mix is one; the serve-layer probe builds the
// same thing over whatever workload it is probing.
type serveRig struct {
	in      probeInput
	mix     queryMix
	clients int
	ds      *repro.ServeDataset
	srv     *repro.Server

	next atomic.Int64             // shared fresh-query counter
	seen []atomic.Pointer[[]byte] // reference or first-seen result bytes per query
}

// newServeRig loads in as resident data and starts a server over it.
// traceEntries is serve.Options.TraceEntries: negative turns obs traces off.
func newServeRig(in probeInput, traceEntries int) (*serveRig, error) {
	ds, err := repro.NewServeDataset(in.keys, in.cols, repro.ServeDatasetOptions{})
	if err != nil {
		return nil, err
	}
	r := &serveRig{in: in, mix: queryMix{ncols: len(in.cols)}, clients: runtime.GOMAXPROCS(0), ds: ds}
	r.seen = make([]atomic.Pointer[[]byte], r.mix.size())
	if err := r.restart(traceEntries); err != nil {
		return nil, err
	}
	return r, nil
}

// restart replaces the server with a fresh one (empty cache) over the same
// resident data.
func (r *serveRig) restart(traceEntries int) error {
	if r.srv != nil {
		r.srv.Close()
	}
	srv, err := repro.NewServer(r.ds, repro.ServerOptions{
		MaxConcurrent: r.clients,
		Workers:       1,
		CacheEntries:  64,
		TraceEntries:  traceEntries,
	})
	r.srv = srv
	return err
}

func (r *serveRig) close() { r.srv.Close() }

// verify compares a result with the bytes first seen (or referenced in
// set-up) for the same canonical query: hit bytes must equal executed bytes.
func (r *serveRig) verify(idx int, got []byte) error {
	if r.seen[idx].CompareAndSwap(nil, &got) {
		return nil
	}
	if want := *r.seen[idx].Load(); !bytes.Equal(got, want) {
		return fmt.Errorf("query %d: result %s differs from reference %s", idx, obs.DigestOf(got), obs.DigestOf(want))
	}
	return nil
}

// pick maps the schedule onto query indexes.
func (r *serveRig) pick(client, i int) int {
	fresh, pick := schedule(r.in.seed, client, i)
	hot := r.mix.hot()
	if !fresh {
		return int(pick % uint64(hot))
	}
	return hot + int(r.next.Add(1)-1)%(r.mix.size()-hot)
}

// loop is the closed loop: r.clients callers, each sending its next query
// when the previous one returns, for d — and beyond d until the caller has
// seen both a cache hit and an executed query, so that neither kind is ever
// reported from no samples. A query the cache did not answer is followed by
// the plain-float64 engine's answer to the same query on the same rows,
// timed as the baseline; ops are classified by Result.CacheHit.
func (r *serveRig) loop(d time.Duration, tr *tracer) (*sample, error) {
	deadline := time.Now().Add(d)
	per := make([]sample, r.clients)
	errs := make([]error, r.clients)
	var wg sync.WaitGroup
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := &per[c]
			for i := 0; time.Now().Before(deadline) || (s.failed == 0 && (len(s.hits) == 0 || len(s.exec) == 0)); i++ {
				idx := r.pick(c, i)
				q := r.mix.query(idx)
				id := tr.start("op.query", 0, i)
				t0 := time.Now()
				res, err := r.srv.Do(q)
				lat := time.Since(t0)
				tr.end(id)
				s.ops++
				s.busy += lat
				if err == nil {
					err = r.verify(idx, res.Bytes)
				}
				if err != nil {
					if s.failed == 0 {
						fmt.Fprintf(os.Stderr, "benchmark: client %d query %d failed: %v\n", c, i, err)
					}
					s.failed++
					continue
				}
				if res.CacheHit {
					s.hits = append(s.hits, lat)
					continue
				}
				s.exec = append(s.exec, lat)
				id = tr.start("op.base", 0, i)
				t0 = time.Now()
				_, err = plainAnswer(r.in.keys, r.in.cols, r.in.groups, q.Specs)
				s.base = append(s.base, time.Since(t0))
				tr.end(id)
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	total := &sample{clients: r.clients}
	for c := range per {
		if errs[c] != nil {
			return nil, fmt.Errorf("baseline op: %w", errs[c])
		}
		total.exec = append(total.exec, per[c].exec...)
		total.base = append(total.base, per[c].base...)
		total.hits = append(total.hits, per[c].hits...)
		total.busy += per[c].busy
		total.ops += per[c].ops
		total.failed += per[c].failed
	}
	return total, nil
}

// rejected is how many queries the server turned away, whatever the reason.
func (r *serveRig) rejected() uint64 {
	st := r.srv.Stats()
	return st.RejectedBudget + st.RejectedQueue + st.RejectedTimeout + st.RejectedRecovering
}

// --- serve_mix --------------------------------------------------------------

func setupServeMix(seed uint64, scale int) (*instance, error) {
	const groups, ncols = 4096, 8
	n := (1 << 19) / scale
	// The same rows serve.SyntheticDataset would generate, kept here so the
	// baseline and the probes can read them.
	keys := workload.Keys(seed, n, groups)
	cols := make([][]float64, ncols)
	for c := range cols {
		cols[c] = workload.Values64(seed+1+uint64(c), n, workload.MixedMag)
	}
	in := probeInput{seed: seed, keys: keys, cols: cols, groups: groups,
		specs: []sqlagg.AggSpec{{Kind: sqlagg.AggSum, Col: 0}, {Kind: sqlagg.AggAvg, Col: 1}, {Kind: sqlagg.AggCount}}}
	r, err := newServeRig(in, -1)
	if err != nil {
		return nil, err
	}

	// Reference for the hot set through a differently shaped execution: the
	// in-process distributed backend over the 4-way sharded layout.
	distSrv, err := repro.NewServer(r.ds, repro.ServerOptions{Workers: 2, Distributed: true, CacheEntries: -1, TraceEntries: -1})
	if err != nil {
		return nil, err
	}
	defer distSrv.Close()
	var hotBytes []byte
	for idx := 0; idx < r.mix.hot(); idx++ {
		ref, err := distSrv.Do(r.mix.query(idx))
		if err != nil {
			return nil, err
		}
		r.seen[idx].Store(&ref.Bytes)
		hotBytes = append(hotBytes, ref.Bytes...)
		// Warm-up: execute the hot set once, filling the cache.
		res, err := r.srv.Do(r.mix.query(idx))
		if err == nil {
			err = r.verify(idx, res.Bytes)
		}
		if err != nil {
			return nil, err
		}
	}
	if _, err := plainAnswer(keys, cols, groups, in.specs); err != nil {
		return nil, err
	}
	return &instance{
		rows:    n,
		digest:  obs.DigestOf(hotBytes),
		input:   in,
		measure: r.loop,
		close:   r.close,
	}, nil
}
