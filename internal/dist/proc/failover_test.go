package proc

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/groupby"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// The supervisor-failover test runs the supervisor in a child process
// so it can be kill -9'd mid-run — the crash model the journal defends
// against — while the workers it spawned (grandchildren, which survive
// the kill) re-attach to a second supervisor child recovering from the
// same journal. The child is this test binary re-executed with
// supervisorEnv set; supervisorMain speaks a tiny line protocol on
// stdout (ADDR, RUN, RESULT <hex>, STATS ...) that the parent drives.
const supervisorEnv = "REPRO_SUPERVISOR_PROCESS"

// Supervisor-child configuration, passed through the environment.
const (
	supEnvJournal = "REPRO_SUP_JOURNAL"
	supEnvKind    = "REPRO_SUP_KIND"
	supEnvSeed    = "REPRO_SUP_SEED"
	supEnvRows    = "REPRO_SUP_ROWS"
	supEnvPhase   = "REPRO_SUP_PHASE"
)

// maybeSupervisorMain turns the process into a failover-test supervisor
// and never returns when spawned as one; see TestMain in proc_test.go.
func maybeSupervisorMain() {
	if os.Getenv(supervisorEnv) == "" {
		return
	}
	os.Exit(supervisorMain())
}

// failoverJob builds the job for one matrix cell. Shared by the
// supervisor child (to run it) and nothing else — the parent computes
// the reference through the in-process engines in failoverWantHex.
func failoverJob(kind string, seed uint64, rows int) Job {
	switch kind {
	case "groupby":
		keys, cols := failoverGroupByRows(seed, rows)
		return Job{Workers: 2, Specs: sumSpecs(), Source: RowShards(groupby.Deal(keys, cols, 3))}
	case "reduce":
		return Job{Workers: 2, Source: ValueShards(shardFloats(failoverReduceRows(seed, rows), 3))}
	case "q1":
		keys, cols, err := tpch.Q1Input(tpch.GenLineitemRows(rows, seed))
		if err != nil {
			panic(err)
		}
		return Job{Workers: 2, Specs: tpch.Q1Specs(core.DefaultLevels), Source: RowShards(tpch.ShardQ1Input(keys, cols, 3))}
	}
	return Job{}
}

func supervisorMain() int {
	dir := os.Getenv(supEnvJournal)
	kind := os.Getenv(supEnvKind)
	seed, _ := strconv.ParseUint(os.Getenv(supEnvSeed), 10, 64)
	rows, _ := strconv.Atoi(os.Getenv(supEnvRows))
	victim := os.Getenv(supEnvPhase) == "1"
	os.Unsetenv(supervisorEnv)

	fail := func(stage string, err error) int {
		fmt.Fprintf(os.Stderr, "supervisor child: %s: %v\n", stage, err)
		return 1
	}
	cfg := matrixConfig()
	cfg.MaxChunkPayload = 2048
	c, err := NewCluster(ClusterSpec{
		Nodes:       3,
		JoinTimeout: 60 * time.Second,
		Journal:     dir,
		Config:      cfg,
		// Workers inherit this process's stderr fd directly (no pipe a
		// supervisor kill could break mid-test, which would SIGPIPE them).
		Options: Options{LogWriter: os.Stderr},
	})
	if err != nil {
		return fail("NewCluster", err)
	}
	defer c.Close()
	fmt.Printf("ADDR %s\n", c.Addr())

	// Wait for formation (first run) or full re-attach (recovery) before
	// announcing RUN: the parent's kill must land after every admission
	// is journaled, so the restarted supervisor respawns nothing.
	for deadline := time.Now().Add(30 * time.Second); !c.Ready(); {
		if time.Now().After(deadline) {
			return fail("formation", fmt.Errorf("cluster not ready"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Println("RUN")
	res, err := c.Run(failoverJob(kind, seed, rows))
	if victim {
		// The first incarnation exists to be kill -9'd: it must never
		// Close (a clean shutdown would dismiss the workers and defeat
		// the re-attach test), so it parks here until the parent's kill
		// lands — whether that interrupted the run above or not.
		select {}
	}
	if err != nil {
		return fail("Run", err)
	}
	if kind == "reduce" {
		fmt.Printf("RESULT %016x\n", math.Float64bits(res.Sum))
	} else {
		fmt.Printf("RESULT %s\n", hex.EncodeToString(res.Payload))
	}
	st := c.Stats()
	fmt.Printf("STATS epoch=%d joined=%d recovered=%t\n",
		st.Epoch, st.Joined, !st.LastRecovery.IsZero())
	if err := c.Close(); err != nil {
		return fail("Close", err)
	}
	return 0
}

// failoverGroupByRows and failoverReduceRows are the cells' inputs.
func failoverGroupByRows(seed uint64, rows int) ([]uint32, [][]float64) {
	return workload.Keys(seed+1, rows, 1024), [][]float64{workload.Values64(seed, rows, workload.MixedMag)}
}

func failoverReduceRows(seed uint64, rows int) []float64 {
	return workload.Values64(seed+2, rows, workload.MixedMag)
}

// failoverWantHex computes the cell's expected RESULT line through the
// in-process engines — the same reference the elastic matrix pins.
func failoverWantHex(t *testing.T, kind string, seed uint64, rows int) string {
	t.Helper()
	switch kind {
	case "groupby":
		keys, cols := failoverGroupByRows(seed, rows)
		ref, err := dist.AggregateTuplesConfig([][]uint32{keys}, [][][]float64{cols}, 2, sumSpecs(), dist.Config{})
		if err != nil {
			t.Fatalf("groupby reference: %v", err)
		}
		return hex.EncodeToString(dist.EncodeTupleGroups(ref, 1))
	case "reduce":
		want, err := dist.ReduceConfig([][]float64{failoverReduceRows(seed, rows)}, 2, dist.Config{})
		if err != nil {
			t.Fatalf("reduce reference: %v", err)
		}
		return fmt.Sprintf("%016x", math.Float64bits(want))
	case "q1":
		qkeys, qcols, err := tpch.Q1Input(tpch.GenLineitemRows(rows, seed))
		if err != nil {
			t.Fatalf("q1 input: %v", err)
		}
		specs := tpch.Q1Specs(core.DefaultLevels)
		ref, err := dist.AggregateTuplesConfig([][]uint32{qkeys}, [][][]float64{qcols}, 2, specs, dist.Config{})
		if err != nil {
			t.Fatalf("q1 reference: %v", err)
		}
		return hex.EncodeToString(dist.EncodeTupleGroups(ref, len(specs)))
	}
	t.Fatalf("unknown kind %q", kind)
	return ""
}

// supChild is one supervisor child process and its stdout line stream.
type supChild struct {
	cmd *exec.Cmd
	sc  *bufio.Scanner
}

func startSupervisor(t *testing.T, dir, kind string, seed uint64, rows int, phase string) *supChild {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		bin = os.Args[0]
	}
	cmd := exec.Command(bin)
	cmd.Env = append(os.Environ(),
		supervisorEnv+"=1",
		supEnvJournal+"="+dir,
		supEnvKind+"="+kind,
		supEnvSeed+"="+strconv.FormatUint(seed, 10),
		supEnvRows+"="+strconv.Itoa(rows),
		supEnvPhase+"="+phase,
	)
	if testing.Verbose() {
		cmd.Stderr = os.Stderr
	} else {
		// A real file, not a pipe: the workers this child spawns share
		// the fd and must be able to write after the child is killed.
		devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			t.Fatalf("open %s: %v", os.DevNull, err)
		}
		t.Cleanup(func() { devnull.Close() })
		cmd.Stderr = devnull
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting supervisor child: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20) // RESULT lines carry whole payloads
	return &supChild{cmd: cmd, sc: sc}
}

// expect scans stdout for the next line with the given tag and returns
// its argument (the remainder after the tag).
func (s *supChild) expect(t *testing.T, tag string) string {
	t.Helper()
	for s.sc.Scan() {
		line := s.sc.Text()
		if line == tag {
			return ""
		}
		if rest, ok := strings.CutPrefix(line, tag+" "); ok {
			return rest
		}
	}
	t.Fatalf("supervisor child exited before printing %s (scan err: %v)", tag, s.sc.Err())
	return ""
}

func (s *supChild) kill(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill supervisor child: %v", err)
	}
	_ = s.cmd.Wait()
}

// TestSupervisorFailover is the tentpole acceptance test: a journaled
// supervisor is kill -9'd mid-run, a second supervisor recovers from
// the same journal directory — re-binding the same control address and
// respawning nothing — the orphaned workers re-attach through the
// backoff + returning-member handshake, and the job's result is
// byte-identical to the in-process reference. One cell runs by
// default; REPRO_FAILOVER_MATRIX=1 (CI nightly) runs the full
// 3 seeds × {groupby, reduce, q1} sweep.
func TestSupervisorFailover(t *testing.T) {
	kinds := []string{"groupby"}
	seeds := []uint64{101}
	if os.Getenv("REPRO_FAILOVER_MATRIX") == "1" {
		kinds = []string{"groupby", "reduce", "q1"}
		seeds = []uint64{101, 202, 303}
	}
	// Enough rows that the 2 KiB-chunk run is still in flight when the
	// kill lands 50 ms after RUN; the victim parks afterwards either way.
	const rows = 200000
	for _, kind := range kinds {
		for _, seed := range seeds {
			kind, seed := kind, seed
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				want := failoverWantHex(t, kind, seed, rows)
				dir := t.TempDir()

				// First incarnation: form, start the run, die mid-run.
				c1 := startSupervisor(t, dir, kind, seed, rows, "1")
				addr1 := c1.expect(t, "ADDR")
				c1.expect(t, "RUN")
				time.Sleep(50 * time.Millisecond)
				c1.kill(t)

				// Second incarnation: recover from the journal. Its
				// workers are the first incarnation's orphans; if any of
				// them had died (or failed to re-attach) the run below
				// would fail with a replacement timeout, so a RESULT line
				// is itself proof of re-attach without respawn.
				c2 := startSupervisor(t, dir, kind, seed, rows, "2")
				if addr2 := c2.expect(t, "ADDR"); addr2 != addr1 {
					t.Errorf("recovered control address = %s, want the journaled %s", addr2, addr1)
				}
				c2.expect(t, "RUN")
				if got := c2.expect(t, "RESULT"); got != want {
					t.Errorf("recovered result differs from the in-process reference — supervisor failover broke bit-reproducibility")
				}
				stats := c2.expect(t, "STATS")
				if !strings.Contains(stats, "epoch=2") {
					t.Errorf("stats %q: want epoch=2 (one journal replay after one crash)", stats)
				}
				if !strings.Contains(stats, "joined=3") {
					t.Errorf("stats %q: want joined=3 (every worker re-attached exactly once)", stats)
				}
				if !strings.Contains(stats, "recovered=true") {
					t.Errorf("stats %q: want recovered=true (LastRecovery must be set)", stats)
				}
				if err := c2.cmd.Wait(); err != nil {
					t.Errorf("recovered supervisor exited uncleanly: %v", err)
				}
			})
		}
	}
}
