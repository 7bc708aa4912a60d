package proc

import "repro/internal/obs"

// clusterMetrics is a cluster's pre-resolved handles into its own
// registry (Cluster.Registry): the one place the supervisor records
// membership, jobs and heartbeat telemetry, and the one place Stats and
// Ready read them back from. Each cluster has its own series, so two
// clusters in one process never add into each other's counters.
type clusterMetrics struct {
	heartbeats     *obs.Counter
	livenessMisses *obs.Counter
	joins          *obs.Counter
	departs        *obs.Counter
	promotions     *obs.Counter
	epochBumps     *obs.Counter
	jobs           *obs.Counter
	replacements   *obs.Counter
	heartbeatRTT   *obs.Histogram
	recoverySecs   *obs.Histogram

	standbys     *obs.Gauge
	epoch        *obs.Gauge
	missing      *obs.Gauge
	lastRTT      *obs.Gauge // nanos
	lastRecovery *obs.Gauge // unix nanos, 0 if never recovered

	// worker sums the wire counters every worker reports in its pings,
	// one counter per pingStats.wireFields entry, in that order.
	worker [len(wireNames)]*obs.Counter
}

func newClusterMetrics(r *obs.Registry) clusterMetrics {
	m := clusterMetrics{
		heartbeats: r.Counter("repro_proc_heartbeats_total",
			"Stat-carrying heartbeat pings received from workers."),
		livenessMisses: r.Counter("repro_proc_liveness_misses_total",
			"Members declared dead after a full liveness window of silence."),
		joins: r.Counter("repro_proc_joins_total",
			"Admissions into node slots (formation, joiners, replacements)."),
		departs: r.Counter("repro_proc_departs_total",
			"Members lost (connection error, process exit, liveness miss)."),
		promotions: r.Counter("repro_proc_promotions_total",
			"Parked standbys promoted into empty node slots."),
		epochBumps: r.Counter("repro_proc_epoch_bumps_total",
			"Supervisor fencing-epoch bumps (journal opens)."),
		jobs: r.Counter("repro_proc_jobs_total",
			"Jobs dispatched to the cluster."),
		replacements: r.Counter("repro_proc_replacements_total",
			"Slot re-admissions: substitutes admitted for dead members."),
		heartbeatRTT: r.Histogram("repro_proc_heartbeat_rtt_seconds",
			"Worker-measured heartbeat round-trip time.", nil),
		recoverySecs: r.Histogram("repro_proc_recovery_seconds",
			"Journal-replay crash-recovery window durations (replay to whole membership).", nil),
		standbys: r.Gauge("repro_proc_standbys",
			"Joiners parked on the standby bench."),
		epoch: r.Gauge("repro_proc_epoch",
			"Supervisor fencing epoch (0 = unjournaled)."),
		missing: r.Gauge("repro_proc_missing_slots",
			"Empty node slots; 0 means the cluster is ready."),
		lastRTT: r.Gauge("repro_proc_heartbeat_rtt_last_ns",
			"Most recent worker-measured heartbeat round trip, in nanoseconds."),
		lastRecovery: r.Gauge("repro_proc_last_recovery_unix_ns",
			"When the supervisor started from a previous journal, in Unix nanoseconds (0 = never)."),
	}
	for i, name := range wireNames {
		m.worker[i] = r.Counter("repro_proc_worker_wire_"+name+"_total",
			"Workers' data-plane wire counter "+name+", summed over their heartbeat reports.")
	}
	return m
}
