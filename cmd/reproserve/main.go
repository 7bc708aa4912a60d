// Command reproserve runs the reproducible SQL serving layer as an
// HTTP server: it loads a resident dataset (synthetic workload rows or
// TPC-H Q1 input), then answers concurrent GROUP BY and window
// aggregate queries with canonical, bit-reproducible results. The same
// query always returns the same bytes — across requests, backends, and
// restarts on the same data — which is what makes the built-in result
// cache correct and the response digests comparable between machines.
//
// Endpoints:
//
//	GET /query?aggs=SUM(0),AVG(1)[&levels=L]   GROUP BY with the given
//	                                           aggregate list (kinds:
//	                                           SUM, COUNT, AVG, VAR_POP,
//	                                           VAR_SAMP, STDDEV_POP,
//	                                           STDDEV_SAMP, MIN, MAX;
//	                                           the argument is the value
//	                                           column index)
//	GET /window?col=C[&levels=L][&limit=N]     per-row window totals
//	                                           SUM(col) OVER (PARTITION
//	                                           BY key); limit caps the
//	                                           rows echoed back
//	GET /stats                                 serving counters, build
//	                                           and version info, uptime
//	GET /metrics                               Prometheus text: the
//	                                           server's registry, the
//	                                           -proc-nodes cluster's
//	                                           (repro_proc_*), and the
//	                                           process-global wire
//	                                           counters
//	GET /trace/{id}                            one query's recorded
//	                                           trace (span names,
//	                                           timings, hop digests);
//	                                           ids come from query
//	                                           responses' trace_id
//	GET /healthz                               liveness probe
//
// Admission failures map to HTTP status codes: over budget → 413,
// overloaded / queue timeout → 503 (with Retry-After), bad query → 400.
//
// Flags:
//
//	-addr            listen address (default 127.0.0.1:8390)
//	-rows            synthetic dataset rows (default 1<<20)
//	-groups          synthetic distinct-key domain (default 4096)
//	-ncols           synthetic value columns (default 4)
//	-seed            workload seed (default 42)
//	-sf              load TPC-H Q1 input at this scale factor instead
//	                 of the synthetic dataset (0 disables)
//	-cluster         answer GROUP BY on the distributed backend
//	-shards          cluster size for -cluster (default 4; a
//	                 -proc-nodes cluster runs on its own size)
//	-proc-nodes      answer GROUP BY on a spawned multi-process cluster
//	                 of this many workers (0 disables; implies -cluster
//	                 semantics over processes)
//	-journal         journal directory for the -proc-nodes supervisor:
//	                 a snapshot of the cluster's control-plane state is
//	                 kept there, replaced at every transition,
//	                 and a restarted reproserve pointed at the same
//	                 directory recovers it — same control address, same
//	                 workers re-attached, same result bytes. While such
//	                 a recovery is in progress, cluster-bound queries
//	                 answer 503 + Retry-After (cache hits still serve).
//	-max-concurrent  executing-query cap (default 8)
//	-max-queue       admission queue depth (default 64)
//	-queue-timeout   queued-query wait bound (default 2s)
//	-budget          per-query memory budget in bytes (default 1 GiB)
//	-cache           result-cache entries (default 256; negative off)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/dist"
	"repro/internal/dist/proc"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	// A -proc-nodes supervisor re-executes its own binary as the
	// workers (unless REPROWORKER_BIN points elsewhere); those child
	// processes divert here and never run the server.
	proc.MaybeWorkerMain()
	addr := flag.String("addr", "127.0.0.1:8390", "listen address")
	rows := flag.Int("rows", 1<<20, "synthetic dataset rows")
	groups := flag.Uint("groups", 4096, "synthetic distinct-key domain")
	ncols := flag.Int("ncols", 4, "synthetic value columns")
	seed := flag.Uint64("seed", 42, "workload seed")
	sf := flag.Float64("sf", 0, "load TPC-H Q1 input at this scale factor instead")
	cluster := flag.Bool("cluster", false, "answer GROUP BY on the distributed backend")
	shards := flag.Int("shards", 4, "cluster size for -cluster (a -proc-nodes cluster runs on its own size)")
	procNodes := flag.Int("proc-nodes", 0, "answer GROUP BY on a spawned multi-process cluster of this many workers (0 disables)")
	journal := flag.String("journal", "", "directory for the -proc-nodes supervisor's state snapshot (enables crash-restart recovery)")
	maxConcurrent := flag.Int("max-concurrent", 8, "executing-query cap")
	maxQueue := flag.Int("max-queue", 64, "admission queue depth")
	queueTimeout := flag.Duration("queue-timeout", 2*time.Second, "queued-query wait bound")
	budget := flag.Int("budget", 1<<30, "per-query memory budget in bytes")
	cache := flag.Int("cache", 256, "result-cache entries (negative disables)")
	flag.Parse()

	dsOpts := serve.DatasetOptions{Shards: *shards}
	var (
		ds  *serve.Dataset
		err error
	)
	if *sf > 0 {
		ds, err = serve.Q1Dataset(*sf, *seed, dsOpts)
	} else {
		ds, err = serve.SyntheticDataset(*seed, *rows, uint32(*groups), *ncols, workload.MixedMag, dsOpts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproserve:", err)
		os.Exit(1)
	}

	var pc *proc.Cluster
	if *procNodes > 0 {
		// The zero spec's workers are replaced when they die and ping
		// every 500ms; each ping carries the worker's wire counters and
		// RTT, which /stats' Worker block and HeartbeatRTT report.
		pc, err = proc.NewCluster(proc.ClusterSpec{Nodes: *procNodes, Journal: *journal})
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproserve:", err)
			os.Exit(1)
		}
		defer pc.Close()
		log.Printf("reproserve: %d-worker process cluster on %s (journal %q)",
			*procNodes, pc.Addr(), *journal)
	}

	srv, err := serve.NewServer(ds, serve.Options{
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		QueueTimeout:  *queueTimeout,
		MemoryBudget:  *budget,
		CacheEntries:  *cache,
		Distributed:   *cluster,
		Cluster:       pc,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "reproserve:", err)
		os.Exit(1)
	}
	defer srv.Close()

	log.Printf("reproserve: %d rows × %d cols resident (version %016x), listening on %s",
		ds.Rows(), ds.Cols(), ds.Version(), *addr)
	log.Fatal(http.ListenAndServe(*addr, newHandler(srv, pc)))
}

// buildInfo is the version block /stats reports: which build answered,
// down to the wire and control-plane encodings it speaks — the first
// things to compare when two deployments disagree about bytes.
type buildInfo struct {
	GoVersion          string `json:"go_version"`
	ModuleVersion      string `json:"module_version"`
	WireFrameVersion   int    `json:"wire_frame_version"`
	ControlSpecVersion int    `json:"control_spec_version"`
	UptimeSeconds      int64  `json:"uptime_seconds"`
}

func newBuildInfo(start time.Time) buildInfo {
	b := buildInfo{
		GoVersion:          runtime.Version(),
		ModuleVersion:      "(devel)",
		WireFrameVersion:   int(dist.FrameVersion),
		ControlSpecVersion: proc.ControlSpecVersion,
		UptimeSeconds:      int64(time.Since(start).Seconds()),
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		b.ModuleVersion = bi.Main.Version
	}
	return b
}

// newHandler wires the serving endpoints onto srv. pc, when non-nil,
// is the backing process cluster whose counters ride along on /stats
// and /metrics.
func newHandler(srv *serve.Server, pc *proc.Cluster) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /query", func(w http.ResponseWriter, r *http.Request) {
		specs, err := parseAggList(r.URL.Query().Get("aggs"), atoiDefault(r.URL.Query().Get("levels"), 0))
		if err != nil {
			httpError(w, fmt.Errorf("%w: %v", serve.ErrBadQuery, err))
			return
		}
		res, err := srv.Do(serve.GroupBy(specs...))
		if err != nil {
			httpError(w, err)
			return
		}
		gs, err := res.Groups()
		if err != nil {
			httpError(w, err)
			return
		}
		type row struct {
			Key  uint32    `json:"key"`
			Aggs []float64 `json:"aggs"`
		}
		out := struct {
			Version  string `json:"data_version"`
			Digest   string `json:"result_digest"`
			CacheHit bool   `json:"cache_hit"`
			TraceID  uint64 `json:"trace_id,omitempty"`
			Groups   []row  `json:"groups"`
		}{
			Version:  fmt.Sprintf("%016x", res.Version),
			Digest:   obs.DigestOf(res.Bytes),
			CacheHit: res.CacheHit,
			TraceID:  res.TraceID,
			Groups:   make([]row, len(gs)),
		}
		for i, g := range gs {
			out.Groups[i] = row{Key: g.Key, Aggs: g.Aggs}
		}
		writeJSON(w, out)
	})

	mux.HandleFunc("GET /window", func(w http.ResponseWriter, r *http.Request) {
		col := atoiDefault(r.URL.Query().Get("col"), 0)
		levels := atoiDefault(r.URL.Query().Get("levels"), 0)
		res, err := srv.Do(serve.WindowTotals(col, levels))
		if err != nil {
			httpError(w, err)
			return
		}
		totals, err := res.Totals()
		if err != nil {
			httpError(w, err)
			return
		}
		limit := atoiDefault(r.URL.Query().Get("limit"), 16)
		shown := totals
		if limit >= 0 && limit < len(shown) {
			shown = shown[:limit]
		}
		writeJSON(w, struct {
			Version  string    `json:"data_version"`
			Digest   string    `json:"result_digest"`
			CacheHit bool      `json:"cache_hit"`
			TraceID  uint64    `json:"trace_id,omitempty"`
			Rows     int       `json:"rows"`
			Totals   []float64 `json:"totals"`
		}{fmt.Sprintf("%016x", res.Version), obs.DigestOf(res.Bytes), res.CacheHit, res.TraceID, len(totals), shown})
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		if pc == nil {
			writeJSON(w, struct {
				serve.Stats
				Build buildInfo `json:"build"`
			}{srv.Stats(), newBuildInfo(start)})
			return
		}
		cst := pc.Stats()
		writeJSON(w, struct {
			serve.Stats
			Cluster proc.ClusterStats `json:"cluster"`
			Ready   bool              `json:"cluster_ready"`
			Build   buildInfo         `json:"build"`
		}{srv.Stats(), cst, pc.Ready(), newBuildInfo(start)})
	})

	// /metrics unions the server's private registry, the backing
	// cluster's (the repro_proc_* control plane and its workers' wire
	// totals) and the process-global one (this process's data-plane
	// wire counters) into a single Prometheus text exposition.
	regs := []*obs.Registry{srv.Registry(), obs.Default}
	if pc != nil {
		regs = []*obs.Registry{srv.Registry(), pc.Registry(), obs.Default}
	}
	mux.Handle("GET /metrics", obs.Handler(regs...))

	mux.HandleFunc("GET /trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			http.Error(w, "trace id must be a decimal integer", http.StatusBadRequest)
			return
		}
		tr := srv.Trace(id)
		if tr == nil {
			http.Error(w, "no such trace (never assigned, evicted, or tracing disabled)", http.StatusNotFound)
			return
		}
		writeJSON(w, tr.View())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// httpError maps the serving layer's typed errors to HTTP statuses.
func httpError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, serve.ErrBadQuery):
		status = http.StatusBadRequest
	case errors.Is(err, serve.ErrOverBudget):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrQueueTimeout):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, serve.ErrServerClosed):
		status = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), status)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
