package repro

import "repro/internal/obs"

// MetricsSnapshot is a point-in-time read of the process-global metric
// registry: sample name → value, Prometheus-style. Counters and gauges
// appear under their registered name; histograms contribute _count and
// _sum samples. Use Sum to total a labelled family by name prefix.
type MetricsSnapshot = obs.Snapshot

// Observe reads every process-global metric at once — the data-plane
// wire counters (repro_dist_*) and anything else instrumented against
// the default registry. The read is lock-free per metric and safe to
// call at any frequency; it sees whatever the atomics hold at that
// instant.
//
// Serving-layer metrics (serve_*) are per-Server and the cluster
// control plane (repro_proc_*) is per-Cluster, not global: read those
// from the server's or the cluster's own registry (Cluster.Registry;
// reproserve exposes the union of all three on /metrics).
func Observe() MetricsSnapshot {
	return obs.Default.Snapshot()
}
