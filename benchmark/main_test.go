package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dist/proc"
)

// asMainEnv makes the test binary behave as the benchmark binary, so the
// smoke tests drive the real driver → child → cluster-worker process tree.
const asMainEnv = "REPRO_BENCH_AS_MAIN"

func TestMain(m *testing.M) {
	proc.MaybeWorkerMain()
	if os.Getenv(asMainEnv) != "" {
		main() // exits
	}
	os.Exit(m.Run())
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 1..200, unsorted
	}
	if got, err := percentile(xs, 95); err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 (10 samples beyond it)", got, err)
	}
	if _, err := percentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 200 samples has 2 beyond it and must be refused")
	}
	if v, pct := tail(xs); pct != 95 || v != 190 {
		t.Errorf("tail of 1..200 = p%v %v, want p95 190", pct, v)
	}
	if v, pct := tail(xs[:8]); pct != 50 || v != median(xs[:8]) {
		t.Errorf("tail of 8 samples = p%v %v, want the median", pct, v)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartile spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := quartileSpread([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread of three samples = %v, want range/median = 0.2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps 2: union is 10..60
		{ID: 4, Parent: 3, Start: 35, End: 45},
		{ID: 5, Parent: 1, Start: 90, End: 120}, // sticks out of its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 100 - 50 - 10, 2: 30, 3: 20, 4: 10, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerChildSpans(t *testing.T) {
	tr := newTracer("w")
	id := tr.start("op", 0, 7)
	tr.child(id, "serve.execute", 5, 20)
	tr.end(id)
	if len(tr.spans) != 2 || tr.spans[1].Parent != id || tr.spans[1].Op != 7 ||
		tr.spans[1].Start != tr.spans[0].Start+5 || tr.spans[1].dur() != 20 {
		t.Errorf("child span recorded as %+v under %+v", tr.spans[1], tr.spans[0])
	}
	var none *tracer
	if none.start("x", 0, 0) != 0 || none.end(0) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

func TestScheduleIsPureWithOneEighthFresh(t *testing.T) {
	const draws = 200000
	fresh := 0
	for i := 0; i < draws; i++ {
		f1, p1 := schedule(42, i%4, i)
		f2, p2 := schedule(42, i%4, i)
		if f1 != f2 || p1 != p2 {
			t.Fatalf("schedule(42, %d, %d) is not a pure function", i%4, i)
		}
		if f1 {
			fresh++
		}
	}
	if share := float64(fresh) / draws; math.Abs(share-1.0/8) > 0.01 {
		t.Errorf("fresh share %.4f, want 1/8 within 1%%", share)
	}
	if f1, p1 := schedule(42, 0, 5); true {
		if f2, p2 := schedule(43, 0, 5); f1 == f2 && p1 == p2 {
			t.Error("the schedule ignores the seed")
		}
	}
	mix := queryMix{ncols: 8}
	seen := map[string]bool{}
	for idx := 0; idx < mix.size(); idx++ {
		enc, err := mix.query(idx).Encode()
		if err != nil {
			t.Fatal(err)
		}
		seen[string(enc)] = true
	}
	if mix.size() != 336 || len(seen) != 336 || mix.hot() != 8 {
		t.Errorf("8 columns give %d queries, %d distinct, %d hot; want 336, 336, 8", mix.size(), len(seen), mix.hot())
	}
}

func TestDeclaredNamesAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the contract", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, specJSON()) {
		t.Error("BENCHMARK.json differs from the program's declarations; regenerate it with: go run . --spec > ../BENCHMARK.json")
	}
}

// runDriver runs this test binary as the benchmark driver and returns the
// JSON objects it printed on standard output.
func runDriver(t *testing.T, args ...string) []result {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("driver %v: %v", args, err)
	}
	var results []result
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("driver printed %q: %v", sc.Text(), err)
		}
		results = append(results, r)
	}
	return results
}

// TestQuickSmoke runs all six workloads at rows/64, untraced and traced, and
// checks that what they emit is exactly what BENCHMARK.json declares.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the whole benchmark")
	}
	out := t.TempDir()
	digests := map[string]string{}
	for _, pass := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		results := runDriver(t, "--workload", "all", "--quick", "--trace", pass.trace, "--out", out)
		if len(results) != len(workloads) {
			t.Fatalf("trace %s: %d results for %d workloads", pass.trace, len(results), len(workloads))
		}
		for i, r := range results {
			w := workloads[i].name
			if r.Workload != w || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("trace %s, %s: workload %q correct %v attempted %d failed %d", pass.trace, w, r.Workload, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(pass.defs) {
				t.Errorf("trace %s, %s: %d metrics emitted, %d declared", pass.trace, w, len(r.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("trace %s, %s: metric %s = %+v (present %v), want unit %s", pass.trace, w, d.Name, m, ok, d.Unit)
				}
				if ok && pass.trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.Name, m.Value)
				}
			}
			if pass.trace == "1" {
				if r.Metrics["serve.rejected"].Value != 0 || r.Metrics["proc.replacements"].Value != 0 {
					t.Errorf("%s: serve.rejected %v, proc.replacements %v, want 0", w, r.Metrics["serve.rejected"].Value, r.Metrics["proc.replacements"].Value)
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+w+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w, err)
				}
			}
			if prev, ok := digests[w]; ok && prev != r.Digest {
				t.Errorf("%s: result digest %s in the traced run, %s in the untraced one, same seed", w, r.Digest, prev)
			}
			digests[w] = r.Digest
		}
	}
	for _, r := range runDriver(t, "--workload", "all", "--quick", "--seed", "43", "--out", out) {
		if r.Digest == digests[r.Workload] {
			t.Errorf("%s: result digest %s does not change with the seed", r.Workload, r.Digest)
		}
	}

	// A single workload prints exactly the contract's object.
	single := exec.Command(os.Args[0], "--workload", "dist_q1", "--quick", "--out", out)
	single.Env = append(os.Environ(), asMainEnv+"=1")
	raw, err := single.Output()
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(bytes.TrimSpace(raw), &keys); err != nil || len(keys) != 4 {
		t.Errorf("single workload printed %s (%v), want exactly correct, attempted, failed, metrics", raw, err)
	}
}

// TestKilledChildLeavesNoWorkers kills the workload child in the middle of
// cluster_shuffle and checks that the driver fails and that neither the
// child nor any cluster worker it spawned is left running.
func TestKilledChildLeavesNoWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the benchmark")
	}
	for attempt := 0; attempt < 5; attempt++ {
		cmd := exec.Command(os.Args[0], "--workload", "cluster_shuffle", "--quick", "--out", t.TempDir())
		cmd.Env = append(os.Environ(), asMainEnv+"=1")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()

		// Wait until the driver's child has cluster workers of its own.
		child := 0
		for child == 0 {
			select {
			case err := <-exited:
				exited <- err
				child = -1
			default:
			}
			procs := listProcs()
			for _, c := range procs {
				if c.ppid != cmd.Process.Pid {
					continue
				}
				for _, w := range procs {
					if w.ppid == c.pid {
						child = c.pid
					}
				}
			}
			time.Sleep(time.Millisecond)
		}
		if child < 0 {
			<-exited
			continue // the run ended before it had workers to orphan; again
		}
		syscall.Kill(child, syscall.SIGKILL)
		if err := <-exited; err == nil {
			t.Error("the driver reported success although its child was killed")
		}
		for _, p := range listProcs() {
			if p.pgrp == child {
				t.Errorf("process %d of the killed child's group %d is still running", p.pid, child)
			}
		}
		return
	}
	t.Fatal("could not catch the child with live workers in five runs")
}
