// Package obs is the repo's dependency-free observability core: a
// registry of atomic counters, gauges, and histograms whose record
// operations are zero-allocation (pinned by AllocsPerRun tests, the
// same discipline as the zero-alloc shuffle path), per-query traces
// whose spans carry result digests so a cross-backend divergence is
// localizable to the first hop that disagrees, and a bounded
// structured event log with monotonic sequence numbers for cluster
// membership transitions.
//
// Hot paths hold pre-registered handles (*Counter, *Gauge,
// *Histogram) and record through lock-free atomics; the registry's
// mutex is only taken at registration and at exposition time
// (Snapshot, WritePrometheus). Metric names follow Prometheus
// conventions and may carry a static label set baked into the name at
// registration ("repro_peer_bytes_out_total{peer=\"3\"}"): labels are
// part of the handle, so recording stays allocation-free.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 metric.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Max raises the gauge to v if v exceeds the current value — a
// lock-free high-water mark.
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution metric. Bucket bounds are
// chosen at registration; Observe is lock-free and allocation-free
// (a linear scan over the bounds plus three atomic adds).
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefSecondsBuckets is the default latency bucket layout, in seconds:
// 100µs to ~100s, a factor of ~3 apart.
var DefSecondsBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100,
}

// metric is one registered name: exactly one of the three handle
// fields is non-nil.
type metric struct {
	name string
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry. Registration is idempotent:
// asking for an existing name returns the existing handle (and panics
// if the name is already registered as a different metric type — a
// programming error, not a runtime condition).
type Registry struct {
	mu    sync.Mutex
	order []metric
	index map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// Default is the process-global registry: package-level
// instrumentation (the dist wire counters) registers here, and
// surfaces like reproserve's /metrics and repro.Observe() read from
// here. Per-instance series (a server's, a cluster's) live in that
// instance's own registry.
var Default = NewRegistry()

func (r *Registry) lookupOrAdd(name, help string, add func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok {
		return r.order[i]
	}
	m := add()
	m.name, m.help = name, help
	r.index[name] = len(r.order)
	r.order = append(r.order, m)
	return m
}

// Counter returns the counter registered under name, creating it on
// first use. help documents the metric in the Prometheus exposition;
// the first registration's help wins.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.lookupOrAdd(name, help, func() metric { return metric{c: &Counter{}} })
	if m.c == nil {
		panic(fmt.Sprintf("obs: %q already registered as a non-counter", name))
	}
	return m.c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.lookupOrAdd(name, help, func() metric { return metric{g: &Gauge{}} })
	if m.g == nil {
		panic(fmt.Sprintf("obs: %q already registered as a non-gauge", name))
	}
	return m.g
}

// Histogram returns the histogram registered under name, creating it
// with the given ascending bucket upper bounds on first use (nil
// bounds default to DefSecondsBuckets). Later registrations return
// the existing handle regardless of the bounds they pass.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.lookupOrAdd(name, help, func() metric {
		if bounds == nil {
			bounds = DefSecondsBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
			}
		}
		return metric{h: &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}}
	})
	if m.h == nil {
		panic(fmt.Sprintf("obs: %q already registered as a non-histogram", name))
	}
	return m.h
}

// Names returns the registered metric names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.order))
	for i, m := range r.order {
		names[i] = m.name
	}
	return names
}

// Value returns the scalar value of a registered counter or gauge.
// Histograms report their sample count. ok is false for unknown names.
func (r *Registry) Value(name string) (v float64, ok bool) {
	r.mu.Lock()
	i, ok := r.index[name]
	if !ok {
		r.mu.Unlock()
		return 0, false
	}
	m := r.order[i]
	r.mu.Unlock()
	switch {
	case m.c != nil:
		return float64(m.c.Value()), true
	case m.g != nil:
		return float64(m.g.Value()), true
	default:
		return float64(m.h.Count()), true
	}
}

// Snapshot is a point-in-time read of a registry: sample name →
// value. Counters and gauges appear under their registered name;
// histograms contribute name_count and name_sum samples (labels, when
// present, stay attached: "h{x=\"1\"}" snapshots as "h_count{x=\"1\"}").
type Snapshot map[string]float64

// Snapshot reads every registered metric at once.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	metrics := append([]metric(nil), r.order...)
	r.mu.Unlock()
	s := make(Snapshot, len(metrics))
	for _, m := range metrics {
		switch {
		case m.c != nil:
			s[m.name] = float64(m.c.Value())
		case m.g != nil:
			s[m.name] = float64(m.g.Value())
		default:
			base, labels := splitName(m.name)
			s[joinName(base+"_count", labels)] = float64(m.h.Count())
			s[joinName(base+"_sum", labels)] = m.h.Sum()
		}
	}
	return s
}

// Sum adds up every sample whose name starts with prefix — convenient
// for label families ("peer_bytes_out_total{peer=...}" summed across
// peers).
func (s Snapshot) Sum(prefix string) float64 {
	var total float64
	for name, v := range s {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			total += v
		}
	}
	return total
}

// splitName splits a registered name into its base and the label body
// (the text inside the braces, "" when unlabelled).
func splitName(name string) (base, labels string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i], name[i+1 : len(name)-1]
		}
	}
	return name, ""
}

// joinName re-attaches a label body to a (possibly suffixed) base.
func joinName(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

// sortedMetrics returns the registry's metrics sorted by name, for
// deterministic exposition.
func (r *Registry) sortedMetrics() []metric {
	r.mu.Lock()
	metrics := append([]metric(nil), r.order...)
	r.mu.Unlock()
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })
	return metrics
}
