package serve

import (
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/dist/proc"
)

// TestMain lets this test binary double as the process-cluster worker:
// the recovery test below spawns a real supervisor, whose workers are
// re-executions of this binary.
func TestMain(m *testing.M) {
	proc.MaybeWorkerMain()
	os.Exit(m.Run())
}

// TestClusterRecoveryDegradation: a server borrowing a cluster that is
// stuck in a recovery window (journal replayed, workers not yet
// re-attached) sheds cluster-bound queries with ErrOverloaded — the
// retryable verdict the HTTP layer turns into 503 + Retry-After —
// while queries that never touch the cluster keep serving.
func TestClusterRecoveryDegradation(t *testing.T) {
	dir := t.TempDir()
	spec := proc.ClusterSpec{Nodes: 1, Journal: dir}
	c1, err := proc.NewCluster(spec)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	for deadline := time.Now().Add(30 * time.Second); !c1.Ready(); {
		if time.Now().After(deadline) {
			t.Fatal("first cluster never formed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Close dismisses the worker but leaves its admission in the
	// journal, so the recovered supervisor below respawns nothing and
	// waits for a re-attach that can never come: a permanently open
	// recovery window, exactly what the server must degrade through.
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c2, err := proc.NewCluster(spec)
	if err != nil {
		t.Fatalf("recovering NewCluster: %v", err)
	}
	t.Cleanup(func() { c2.Close() })
	if c2.Ready() {
		t.Fatal("recovered cluster reports Ready with its worker gone")
	}
	if !c2.Recovering() {
		t.Fatal("recovered cluster does not report Recovering")
	}
	if c1.Recovering() {
		t.Fatal("first-formation cluster reports Recovering")
	}
	if st := c2.Stats(); st.Epoch != 2 || st.LastRecovery.IsZero() {
		t.Fatalf("recovered cluster stats: %+v, want epoch 2 and LastRecovery set", st)
	}

	ds := testDataset(t, 1<<10, 64, 2)
	s := mustServer(t, ds, Options{Cluster: c2})
	if _, err := s.Do(GroupBy(testSpecs()...)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cluster-bound query during recovery = %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.RejectedRecovering != 1 {
		t.Fatalf("RejectedRecovering = %d, want 1", st.RejectedRecovering)
	}
	// Window totals never leave the serving node: still answered.
	if _, err := s.Do(WindowTotals(0, 0)); err != nil {
		t.Fatalf("local query during recovery: %v", err)
	}
}
