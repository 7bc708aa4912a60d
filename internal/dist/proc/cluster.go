// Package proc is the multi-process cluster runtime of the
// reproducible aggregation engine: it runs the exact protocol of
// internal/dist — the hash-shuffle exchange every distributed aggregate
// uses, a reduction as a GROUP BY of one group, chunked wire format v3,
// per-chunk resend recovery and all — across genuinely separate worker
// OS processes connected by real TCP sockets.
//
// The core abstraction is the elastic Cluster (elastic.go): a
// long-lived supervisor that forms its worker set from whoever joins
// its control address (reproworker -join) — processes it started
// itself and processes an operator started elsewhere are admitted
// through one handshake — a join hello announcing the build, answered
// by KindConf with the cluster config and a node slot — and take slots
// in arrival order; runs a sequence of typed Jobs whose
// inputs are the caller's shards, their bits streamed to the workers
// in cache-sized chunks; and survives worker death mid-run by admitting
// a substitute through that same handshake, re-shipping the lost job
// spec and rows, and re-pointing the surviving peers' reconnect-safe
// transports. A death is a membership event, never a broken cluster: a
// job no substitute arrives for fails with ErrRecovering, and the next
// joiner takes the empty slot. The result is bit-identical to the
// in-process engine for every cluster size, chunk regime, fault plan,
// forced socket kill, and mid-run replacement — the paper's
// reproducibility claim extended to its hardest setting: separate
// processes with nothing shared but the wire, some of them dying
// halfway through.
//
// A Cluster is the only way to run a job across processes: the facade's
// Distributed* operators run the in-process engine, and its NewCluster
// is this package's.
package proc

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dist"
)

// Options configures the supervisor side of a multi-process run. The
// zero value is the configuration the facade uses. The worker binary
// comes from the environment (see resolveWorker), and the workers
// inherit the supervisor's environment.
type Options struct {
	// LogWriter receives the workers' stderr (default os.Stderr).
	LogWriter io.Writer
	// KillConnNode / KillConnAfter force the socket-kill-and-reconnect
	// scenario: node KillConnNode severs all its outgoing data-plane
	// connections once, just before its KillConnAfter-th data frame.
	// KillConnAfter == 0 disables. Recovery must be invisible in the
	// result bits; TestProcKillReconnectEquivalence asserts exactly
	// that.
	KillConnNode  int
	KillConnAfter int
}

func (o Options) logWriter() io.Writer {
	if o.LogWriter == nil {
		return os.Stderr
	}
	return o.LogWriter
}

// resolveWorker picks the worker binary: the REPROWORKER_BIN
// environment variable, then re-executing the current binary (whose
// main must call MaybeWorkerMain).
func resolveWorker() (path string, reexec bool, err error) {
	if p := os.Getenv("REPROWORKER_BIN"); p != "" {
		return p, false, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return "", false, fmt.Errorf("proc: no reproworker binary configured and the current executable is unknown: %w", err)
	}
	return exe, true, nil
}

// verifyJoinHello checks a join hello's build against this
// supervisor's: frame version and rsum level count (decodeHello checked
// the control-plane spec version). Every mismatch is an ErrHandshake.
func verifyJoinHello(h hello) error {
	if h.version != dist.FrameVersion {
		return fmt.Errorf("%w: worker speaks frame version %d, supervisor speaks %d",
			dist.ErrHandshake, h.version, dist.FrameVersion)
	}
	if h.levels != core.DefaultLevels {
		return fmt.Errorf("%w: worker compiled with %d rsum levels, supervisor with %d — partial states would not merge",
			dist.ErrHandshake, h.levels, core.DefaultLevels)
	}
	return nil
}

// exitErr folds a nil cmd.Wait error into something printable.
func exitErr(err error) error {
	if err == nil {
		return errors.New("exit status 0")
	}
	return err
}
