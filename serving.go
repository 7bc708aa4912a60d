package repro

import (
	"repro/internal/serve"
	"repro/internal/workload"
)

// The serving layer: a long-lived query server over shared resident
// data. Reproducibility is what makes it work as a serving system —
// every query result is a pure function of (query, data version), so
// the result cache is correct by construction, and the local engine
// and the distributed cluster answer with identical bytes. See
// cmd/reproserve for the HTTP binary on top of this API.

// ServeDataset is an immutable resident table the server answers
// queries over: uint32 group keys plus float64 value columns, held
// simultaneously in row order (window queries), radix-partitioned and
// sorted by key within each partition (local GROUP BY engine), and
// sharded (distributed backend) layouts.
type ServeDataset = serve.Dataset

// ServeDatasetOptions configures resident-data loading: the cluster
// size data is pre-sharded for and the load-time partitioning and sort
// parallelism.
type ServeDatasetOptions = serve.DatasetOptions

// Server answers concurrent aggregate queries over one ServeDataset
// with admission control (bounded executing queries plus a bounded,
// timeout-guarded wait queue), per-query memory budgets estimated
// before execution, and a result cache keyed by the canonical query
// encoding and the data version.
type Server = serve.Server

// ServerOptions configures a Server: concurrency and queue bounds, the
// per-query memory budget, cache capacity, and backend selection.
type ServerOptions = serve.Options

// ServerStats is a snapshot of a server's admission, cache, and
// concurrency counters.
type ServerStats = serve.Stats

// ServeQuery is one serving-layer query: a multi-aggregate GROUP BY
// over the AggSpec catalog, or a per-row window total.
type ServeQuery = serve.Query

// ServeResult is one answered query: the canonical result bytes (a
// pure function of query and data version, identical for every backend
// and execution) plus decode helpers.
type ServeResult = serve.Result

// Typed errors of the serving layer, matchable with errors.Is.
var (
	// ErrBadQuery: unknown kind, aggregate not in the catalog, out-of-range
	// column, or invalid level count.
	ErrBadQuery = serve.ErrBadQuery
	// ErrOverBudget: the query's estimated working memory exceeds the
	// server's per-query budget; rejected before execution.
	ErrOverBudget = serve.ErrOverBudget
	// ErrOverloaded: all execution slots busy and the wait queue full.
	ErrOverloaded = serve.ErrOverloaded
	// ErrQueueTimeout: the query waited out the admission queue timeout.
	ErrQueueTimeout = serve.ErrQueueTimeout
	// ErrServerClosed: the server has been closed.
	ErrServerClosed = serve.ErrServerClosed
)

// NewServer starts a query server over ds. Distributed-backend
// interconnect options (WithTCPTransport, WithFaults, …) apply to
// every query the server routes through the in-process tuple plane.
// To serve over real worker processes, set ServerOptions.Cluster to a
// NewCluster handle: GROUP BY queries then run as cluster jobs and the
// served bytes are identical to every other backend's.
func NewServer(ds *ServeDataset, opts ServerOptions, distOpts ...DistOption) (*Server, error) {
	for _, o := range distOpts {
		o(&opts.Dist)
	}
	return serve.NewServer(ds, opts)
}

// NewServeDataset loads keys and value columns as resident serving
// data. The slices are retained and must not be mutated afterwards.
func NewServeDataset(keys []uint32, cols [][]float64, opts ServeDatasetOptions) (*ServeDataset, error) {
	return serve.NewDataset(keys, cols, opts)
}

// NewSyntheticServeDataset loads a deterministic synthetic dataset: n
// rows with keys uniform over [0, ngroups) and ncols mixed-magnitude
// value columns derived from seed.
func NewSyntheticServeDataset(seed uint64, n int, ngroups uint32, ncols int, opts ServeDatasetOptions) (*ServeDataset, error) {
	return serve.SyntheticDataset(seed, n, ngroups, ncols, workload.MixedMag, opts)
}

// NewQ1ServeDataset loads TPC-H lineitem at the given scale factor and
// evaluates Q1's scan side into resident serving data; GroupByQuery
// over tpch.Q1Specs reproduces the eight Q1 aggregates.
func NewQ1ServeDataset(sf float64, seed uint64, opts ServeDatasetOptions) (*ServeDataset, error) {
	return serve.Q1Dataset(sf, seed, opts)
}

// GroupByQuery returns a GROUP BY query over the given aggregates.
func GroupByQuery(specs ...AggSpec) ServeQuery { return serve.GroupBy(specs...) }

// WindowTotalsQuery returns the window aggregate SUM(col) OVER
// (PARTITION BY key): one total per input row, in row order.
func WindowTotalsQuery(col, levels int) ServeQuery { return serve.WindowTotals(col, levels) }
