// Command reproworker is the cluster worker of the multi-process
// runtime (internal/dist/proc): one reproworker process is one node of
// a reproducible-aggregation cluster.
//
// A worker is given one thing, the cluster's control address:
//
//	reproworker -join 10.0.0.5:43117
//
// That is the line a supervisor (repro.NewCluster) starts its own
// workers with, and the line an operator types to add capacity from
// another shell or another machine; the cluster cannot tell the two
// apart. The worker dials the address and introduces itself with a
// join hello carrying its frame codec version, rsum summation level
// count and control-plane spec version; the supervisor admits it by
// handing it the cluster configuration and a node slot (or parks it as
// a standby when every slot is taken — with replacement enabled, the
// substitute it promotes when a member dies mid-run). The supervisor
// rejects any mismatch with a typed wire error (ErrHandshake) before a
// byte of data moves — a stale binary cannot silently join and
// diverge, and a returning worker holding another configuration cannot
// rejoin.
// Accepted workers receive job specs over the control plane, fill
// their input from the rows stream that follows each one, bind a
// fresh data-plane listener per job, execute their node's role of the reduction or
// GROUP BY shuffle protocol over real sockets (reconnecting and
// serving per-chunk resends through any socket failure), and exit on
// the supervisor's shutdown frame. A worker whose supervisor vanishes
// redials and goes through the same handshake again, naming the slot
// it held.
//
// Exit codes: 0 on a clean shutdown (also -help), 1 on a runtime
// failure, 2 on flag misuse, and 3 when the supervisor rejects the
// handshake — scripts can tell "wrong build or config" (3) apart
// from "cluster fell over" (1) without parsing stderr.
//
// Point a supervisor at an explicitly built worker with the
// REPROWORKER_BIN environment variable (CI does, to prove the real
// binary path); without it, supervisors re-execute their own binary.
package main

import (
	"os"

	"repro/internal/dist/proc"
)

func main() {
	os.Exit(proc.WorkerMain(os.Args[1:]))
}
