package proc

import "repro/internal/obs"

// Control-plane counters on the process-global obs.Default registry.
// In a supervisor process these describe the cluster it runs; a worker
// process (reproworker -metrics-addr) moves only the data-plane series
// internal/dist registers. Handles are package-level so the supervisor
// loop records through pre-resolved atomics.
var (
	mHeartbeats = obs.Default.Counter("repro_proc_heartbeats_total",
		"Stat-carrying heartbeat pings received from workers.")
	mLivenessMisses = obs.Default.Counter("repro_proc_liveness_misses_total",
		"Members declared dead after a full liveness window of silence.")
	mJoins = obs.Default.Counter("repro_proc_joins_total",
		"Admissions into node slots (formation, joiners, replacements).")
	mDeparts = obs.Default.Counter("repro_proc_departs_total",
		"Members lost (connection error, process exit, liveness miss).")
	mPromotions = obs.Default.Counter("repro_proc_promotions_total",
		"Parked standbys promoted into empty node slots.")
	mEpochBumps = obs.Default.Counter("repro_proc_epoch_bumps_total",
		"Supervisor fencing-epoch bumps (journal opens).")
	mJobsStarted = obs.Default.Counter("repro_proc_jobs_total",
		"Jobs dispatched to the cluster.")
	mHeartbeatRTT = obs.Default.Histogram("repro_proc_heartbeat_rtt_seconds",
		"Worker-measured heartbeat round-trip time.", nil)
	mRecoverySecs = obs.Default.Histogram("repro_proc_recovery_seconds",
		"Journal-replay crash-recovery window durations (replay to whole membership).", nil)
)
