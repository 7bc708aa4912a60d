package proc

import (
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"

	"repro/internal/dist"
)

// handMember makes a hand-made connection the member of slot id; the
// supervisor's ping echoes on it are read and dropped.
func handMember(t *testing.T, l *clusterLoop, id int) *connState {
	t.Helper()
	sup, wrk := net.Pipe()
	t.Cleanup(func() { sup.Close(); wrk.Close() })
	go io.Copy(io.Discard, wrk)
	cs := &connState{ctlConn: newCtlConn(sup, 0), phase: phaseMember, id: id}
	l.members[id] = cs
	return cs
}

// ping feeds the loop one heartbeat from cs: the worker process nonce
// reporting framesOut data-plane frames written since it started.
func ping(l *clusterLoop, cs *connState, nonce, framesOut uint64) {
	l.handleMemberMsg(cs, dist.Frame{Kind: dist.KindPing, From: cs.id, Seq: ctrlSeqCluster,
		Payload: encodePingStats(pingStats{sentNanos: 1, nonce: nonce, wire: dist.WireStats{FramesOut: framesOut}})})
}

// TestWorkerWireFoldPerProcess: a worker's cumulative wire counters are
// folded as deltas against the same process's previous report — never
// against whichever process held the slot before, and never twice for a
// process that comes back on a new control connection.
func TestWorkerWireFoldPerProcess(t *testing.T) {
	t.Run("replacement in the dead worker's slot", func(t *testing.T) {
		l := handLoop(2)
		ping(l, handMember(t, l, 1), 0xA, 3)   // slot 1's first process, which then dies
		ping(l, handMember(t, l, 1), 0xB, 500) // the replacement process in slot 1
		if got := l.c.Stats().Worker.FramesOut; got != 503 {
			t.Errorf("Worker.FramesOut = %d after reports of 3 and 500 frames from two processes, want 503", got)
		}
	})
	t.Run("same process re-attached to another slot", func(t *testing.T) {
		l := handLoop(2)
		ping(l, handMember(t, l, 0), 0xC, 10)
		// The process loses its control connection, a standby takes
		// slot 0, and the process re-attaches into slot 1, still
		// reporting its counters since process start.
		again := handMember(t, l, 1)
		ping(l, again, 0xC, 15)
		ping(l, again, 0xC, 15)
		if got := l.c.Stats().Worker.FramesOut; got != 15 {
			t.Errorf("Worker.FramesOut = %d after one process reported 10, then 15 twice, want 15", got)
		}
	})
}

// snake turns a Go field name into its series fragment (FramesOut →
// frames_out).
func snake(name string) string {
	var b strings.Builder
	for i, r := range name {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}

// TestZeroSpecHeartbeats: a spec that sets no Heartbeat pings at the
// default interval, so after a job Stats reports heartbeats and the
// workers' wire counters instead of zeros.
func TestZeroSpecHeartbeats(t *testing.T) {
	c, err := NewCluster(ClusterSpec{Nodes: 2, JoinTimeout: 30 * time.Second, Options: quietOpts()})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	keys, cols := dealtRows(4096, 2)
	if _, err := c.Run(Job{Specs: twoColSpecs(), Source: RowShards(keys, cols)}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st := c.Stats(); st.Heartbeats < 1 || st.Worker.FramesOut == 0; st = c.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v 10s after a job; want Heartbeats >= 1 and Worker.FramesOut > 0", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterStatsView: ClusterStats is a view of the cluster's own
// registry. After a GROUP BY on a 2-node cluster with heartbeats, every
// field equals its series, the workers' wire traffic has arrived, and a
// second cluster in the same process counts only its own joins.
func TestClusterStatsView(t *testing.T) {
	const nodes = 2
	spec := ClusterSpec{Nodes: nodes, Heartbeat: 20 * time.Millisecond, JoinTimeout: 30 * time.Second, Options: quietOpts()}
	c, err := NewCluster(spec)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	keys, cols := dealtRows(4096, nodes)
	if _, err := c.Run(Job{Workers: 1, Specs: twoColSpecs(), Source: RowShards(keys, cols)}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	base := c.Stats().Heartbeats
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st := c.Stats()
		if st.Heartbeats >= base+2*nodes && st.Worker.FramesOut > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no post-job wire traffic after %d heartbeats (stats %+v)", st.Heartbeats-base, st)
		}
	}
	if v, _ := c.Registry().Value("repro_proc_missing_slots"); !c.Ready() || v != 0 {
		t.Errorf("Ready() = %t with repro_proc_missing_slots %v, want true and 0", c.Ready(), v)
	}

	other, err := NewCluster(ClusterSpec{Nodes: 1, JoinTimeout: 30 * time.Second, Options: quietOpts()})
	if err != nil {
		t.Fatalf("second NewCluster: %v", err)
	}
	defer other.Close()
	waitJoined(t, other, 1)
	if err := other.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if j, _ := other.Registry().Value("repro_proc_joins_total"); other.Stats().Joined != 1 || j != 1 {
		t.Errorf("second cluster: Joined %d, repro_proc_joins_total %v; want its own 1 join", other.Stats().Joined, j)
	}

	// Closed, the supervisor loop no longer records: the view and the
	// registry are read at rest.
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	st, snap := c.Stats(), c.Registry().Snapshot()
	var lastRecovery float64
	if !st.LastRecovery.IsZero() {
		lastRecovery = float64(st.LastRecovery.UnixNano())
	}
	type sample struct {
		series string
		v      float64
	}
	view := map[string]sample{
		"Joined":       {"repro_proc_joins_total", float64(st.Joined)},
		"Replaced":     {"repro_proc_replacements_total", float64(st.Replaced)},
		"Standbys":     {"repro_proc_standbys", float64(st.Standbys)},
		"Epoch":        {"repro_proc_epoch", float64(st.Epoch)},
		"LastRecovery": {"repro_proc_last_recovery_unix_ns", lastRecovery},
		"Jobs":         {"repro_proc_jobs_total", float64(st.Jobs)},
		"Heartbeats":   {"repro_proc_heartbeats_total", float64(st.Heartbeats)},
		"HeartbeatRTT": {"repro_proc_heartbeat_rtt_last_ns", float64(st.HeartbeatRTT)},
	}
	wire := reflect.ValueOf(st.Worker)
	for i := 0; i < wire.NumField(); i++ {
		name := wire.Type().Field(i).Name
		view["Worker."+name] = sample{"repro_proc_worker_wire_" + snake(name) + "_total", float64(wire.Field(i).Uint())}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(st)) {
		if _, ok := view[f.Name]; !ok && f.Name != "Events" && f.Name != "Worker" {
			t.Errorf("ClusterStats.%s has no series in this test", f.Name)
		}
	}
	for field, want := range view {
		got, ok := snap[want.series]
		if !ok || got != want.v {
			t.Errorf("ClusterStats.%s = %v, registry %s = %v (present %t)", field, want.v, want.series, got, ok)
		}
	}
	if st.Joined != nodes || st.Jobs != 1 || st.Worker.FramesOut == 0 {
		t.Errorf("stats = %+v, want %d joins, 1 job, worker frames out", st, nodes)
	}
}
