// Command benchmark is the repo's benchmark: six workloads, from the rsum
// kernel to the query server, each timed against a plain-float64 baseline
// in the same run, with the result bits of every timed operation checked
// against a reference computed through a differently shaped execution.
// BENCHMARK.json at the root of the repo describes it; README.md in this
// directory says what each workload and metric is for and how to read them.
//
// Every workload runs in a child process of its own (the driver re-executes
// itself), so set-up time and peak memory are per workload, no heap state
// leaks between workloads, and the driver can stop whatever a workload
// leaves behind. Linux only: it reads /proc and sysfs.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist/proc"
)

// childEnv marks a process as the child that runs one workload.
const childEnv = "REPRO_BENCH_CHILD"

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	out      string
	aa       int
	spec     bool
}

func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&c.seed, "seed", 42, "seed of the generated inputs")
	fs.Float64Var(&c.seconds, "seconds", runSeconds, "how long one run measures")
	fs.IntVar(&c.trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	fs.BoolVar(&c.quick, "quick", false, "smoke run: rows / 64 and three pairs per stretch")
	fs.StringVar(&c.out, "out", "benchmark/out", "directory for trace files and aa.json")
	fs.IntVar(&c.aa, "aa", 0, "A/A mode: run the untraced set this many times and write aa.json")
	fs.BoolVar(&c.spec, "spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.workload != "all" && findWorkload(c.workload) == nil {
		return c, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds <= 0 || c.trace < 0 || c.trace > 1 || c.aa < 0 {
		return c, errors.New("need --seconds > 0, --trace 0 or 1, --aa >= 0")
	}
	return c, nil
}

func main() {
	proc.MaybeWorkerMain() // cluster workers are spawned from this binary
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(cfg))
	}
	os.Exit(driverMain(cfg))
}

// --- what crosses from child to driver to standard output -------------------

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output. The contract's keys come
// first; the driver adds the others only when it runs more than one
// workload, so a single-workload run prints exactly the contract's object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Workload  string                 `json:"workload,omitempty"`
	Seed      uint64                 `json:"seed,omitempty"`
	Digest    string                 `json:"result_digest,omitempty"`
	WallS     float64                `json:"wall_s,omitempty"`
}

// --- the child: one workload ------------------------------------------------

// setups is how many times an untraced run sets the workload up; setup_s is
// the median.
const setups = 3

func childMain(cfg config) int {
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

func runWorkload(cfg config) (*result, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	w := findWorkload(cfg.workload)
	scale, seconds := 1, cfg.seconds
	if cfg.quick {
		scale, seconds = 64, 0.05 // minPairs decides the length
	}
	stretch := func(share float64) time.Duration {
		return time.Duration(seconds * share * float64(time.Second))
	}

	// Set-up: generate the inputs, compute the reference, start the
	// cluster or server, warm up. Traced runs report no setup_s and set up
	// once.
	n := setups
	if cfg.trace == 1 {
		n = 1
	}
	var inst *instance
	var setupS []float64
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			debug.FreeOSMemory() // so every set-up starts from the same heap and peak memory is one instance
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg.seed, scale); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	res := &result{Metrics: map[string]metricValue{}, Workload: w.name, Seed: cfg.seed, Digest: inst.digest}
	put := func(defs []metricDef, values map[string]float64) error {
		for _, d := range defs {
			v, ok := values[d.Name]
			if !ok {
				return fmt.Errorf("metric %s was not measured", d.Name)
			}
			res.Metrics[d.Name] = metricValue{v, d.Unit}
		}
		return nil
	}

	if cfg.trace == 0 {
		defer inst.close()
		s, err := inst.measure(stretch(1), nil)
		if err != nil {
			return nil, err
		}
		if len(s.exec) == 0 || len(s.base) == 0 {
			return nil, errors.New("no executed operation to report")
		}
		res.Attempted, res.Failed = s.ops, s.failed
		reproMs, baseMs := fastestMs(s.exec), fastestMs(s.base)
		fmt.Fprintf(os.Stderr, "  %-16s digest %s  slowdown %.2f = repro fastest %.3f ms (p50 %.3f) / base fastest %.3f ms (p50 %.3f) over %d executed ops, %d ops in all; set-ups %.3f s\n",
			w.name, inst.digest, reproMs/baseMs, reproMs, median(durationsMs(s.exec)), baseMs, median(durationsMs(s.base)), len(s.exec), s.ops, setupS)
		err = put(endToEnd[:len(endToEnd)-1], map[string]float64{ // peak_rss_mb is the driver's to add
			"setup_s":    median(setupS),
			"rows_per_s": s.rowsPerS(inst.rows),
			"op_best_ms": min(reproMs, fastestMs(s.hits)),
		})
		res.Correct = err == nil && s.failed == 0
		return res, err
	}

	// The traced pass: a quarter-length stretch with a driver span around
	// every timed op, then the layer probes on the workload's rows.
	tr := newTracer(w.name)
	s, err := inst.measure(stretch(0.25), tr)
	inst.close() // the probes start a cluster and servers of their own
	if err != nil {
		return nil, err
	}
	if len(s.exec) == 0 || len(s.base) == 0 {
		return nil, errors.New("no executed operation to report")
	}
	opSpans, opTime := len(tr.spans), s.busy
	for _, d := range s.base {
		opTime += d
	}
	m, err := probeLayers(inst.input, tr, seconds)
	if err != nil {
		return nil, err
	}
	// The ratio the paper reports, with its two bases (fastest and median of
	// each side) and the number of ops behind them.
	m["bench.repro_slowdown"] = fastestMs(s.exec) / fastestMs(s.base)
	m["bench.repro_best_ms"], m["bench.repro_p50_ms"] = fastestMs(s.exec), median(durationsMs(s.exec))
	m["bench.base_best_ms"], m["bench.base_p50_ms"] = fastestMs(s.base), median(durationsMs(s.base))
	m["bench.pairs"] = float64(len(s.exec))
	// What recording the spans cost, as a share of the time they bracketed:
	// measured directly, because the difference between a traced and an
	// untraced stretch is far below what two short stretches can resolve.
	m["obs.driver_span_overhead_pct"] = float64(opSpans) * float64(spanCost()) / float64(opTime) * 100
	if err := tr.write(cfg.out); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = s.ops, s.failed
	err = put(perLayer, m)
	res.Correct = err == nil && res.Failed == 0 && m["serve.rejected"] == 0 && m["proc.replacements"] == 0
	return res, err
}

// fastestMs is the shortest of the durations, +Inf for none. Every timing
// the benchmark reports is a fastest-of-many: the machine's noise only ever
// adds time, so the minimum repeats where the median does not (README.md,
// "Why the fastest and not the median").
func fastestMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return math.Inf(1)
	}
	return ms(slices.Min(ds))
}

// rowsPerS is the rate at which the closed loop aggregates input rows when
// every operation takes the fastest time seen for its kind: rows x clients
// x ops / (executed ops x fastest executed + cache hits x fastest hit).
// For the batch workloads, which have one caller and no cache, that is rows
// / the fastest reproducible op; baseline ops are not part of it.
func (s *sample) rowsPerS(rows int) float64 {
	busyMs := float64(len(s.exec)) * fastestMs(s.exec)
	if len(s.hits) > 0 {
		busyMs += float64(len(s.hits)) * fastestMs(s.hits)
	}
	return float64(rows) * float64(s.clients) * float64(len(s.exec)+len(s.hits)) / (busyMs / 1000)
}

// --- the driver -------------------------------------------------------------

func driverMain(cfg config) int {
	if cfg.spec {
		os.Stdout.Write(specJSON())
		return 0
	}
	if n := runtime.NumCPU(); n < 2 {
		fmt.Fprintf(os.Stderr, "benchmark: %d CPU: the workloads need at least 2 (2 cluster nodes, GOMAXPROCS = min(nproc, 4) clients)\n", n)
		return 1
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// One run at a time per checkout: two would share cores and both be wrong.
	lock, err := os.OpenFile(filepath.Join(cfg.out, ".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err == nil {
		err = syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: another run holds %s (%v); refusing to run concurrently\n", filepath.Join(cfg.out, ".lock"), err)
		return 1
	}
	defer lock.Close()
	// Orphaned descendants (cluster workers of a child that died) are
	// re-parented here, so the driver can wait until each has ended.
	const prSetChildSubreaper = 36
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0)
	printHeader()

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if cfg.aa > 0 {
		return aaMain(cfg, names)
	}
	code := 0
	start := time.Now()
	for _, name := range names {
		res, err := runChild(cfg, name, cfg.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "  %-16s wall %.1f s\n", name, res.WallS)
		if !res.Correct {
			code = 1
		}
		if len(names) == 1 {
			res = &result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}
		}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
	if len(names) > 1 {
		fmt.Fprintf(os.Stderr, "  total wall %.1f s\n", time.Since(start).Seconds())
	}
	return code
}

// runChild runs one workload in a child process of its own and returns the
// result the child printed, with the child's peak resident set added. On
// every path it stops the child's whole process group and waits for every
// descendant, so no cluster worker outlives the run.
func runChild(cfg config, name string, seed uint64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(cfg.seconds),
		"--trace", fmt.Sprint(cfg.trace), "--out", cfg.out}
	if cfg.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	pgid := cmd.Process.Pid
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sigs:
			syscall.Kill(-pgid, syscall.SIGKILL)
		case <-done:
		}
	}()

	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		last = sc.Text()
	}
	waitErr := cmd.Wait()
	close(done)
	signal.Stop(sigs)
	syscall.Kill(-pgid, syscall.SIGKILL) // whatever the child left behind
	for {
		if _, err := syscall.Wait4(-1, nil, 0, nil); err != nil && err != syscall.EINTR {
			break // ECHILD: every descendant has ended
		}
	}
	if waitErr != nil {
		return nil, fmt.Errorf("child: %w", waitErr)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("child printed no result: %w", err)
	}
	res.WallS = time.Since(start).Seconds()
	if cfg.trace == 0 {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("no resource usage for the child")
		}
		d := endToEnd[len(endToEnd)-1]
		res.Metrics[d.Name] = metricValue{float64(ru.Maxrss) / 1024, d.Unit} // Linux reports KiB
	}
	return &res, nil
}

func printHeader() {
	model, l2 := "unknown", "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index2/size"); err == nil {
		l2 = strings.TrimSpace(string(raw))
	}
	fmt.Fprintf(os.Stderr, "benchmark: nproc %d, GOMAXPROCS %d, %s, cpu %q, L2 %s\n",
		runtime.NumCPU(), min(runtime.NumCPU(), 4), runtime.Version(), model, l2)
}

// --- A/A --------------------------------------------------------------------

type aaCell struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
	Within   bool      `json:"within"`
}

// aaMain runs the untraced set cfg.aa times and writes aa.json: for every
// (end-to-end metric, workload) the values, their spread (quartile distance
// over median from four runs up, else range over median) and the bound. It
// fails when a spread exceeds its bound, an op failed, or a result digest
// changed between repetitions.
func aaMain(cfg config, names []string) int {
	cfg.trace = 0
	var cells []aaCell
	digests := map[string][]string{}
	ok := true
	for _, name := range names {
		values := map[string][]float64{}
		for rep := 0; rep < cfg.aa; rep++ {
			res, err := runChild(cfg, name, cfg.seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "  %-16s run %d wall %.1f s\n", name, rep, res.WallS)
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %d of %d ops failed\n", name, rep, res.Failed, res.Attempted)
				ok = false
			}
			if rep > 0 && res.Digest != digests[name][0] {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: result digest %s, run 0 had %s\n", name, rep, res.Digest, digests[name][0])
				ok = false
			}
			digests[name] = append(digests[name], res.Digest)
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], res.Metrics[d.Name].Value)
			}
		}
		for _, d := range endToEnd {
			c := aaCell{Workload: name, Metric: d.Name, Values: values[d.Name], Median: median(values[d.Name]),
				Spread: quartileSpread(values[d.Name]), Bound: d.Bound}
			c.Within = c.Spread <= c.Bound
			verdict := ""
			if !c.Within {
				verdict, ok = "  OVER BOUND", false
			}
			fmt.Fprintf(os.Stderr, "  %-16s %-15s median %12.4f  spread %6.2f%%  bound %4.0f%%%s\n",
				name, d.Name, c.Median, 100*c.Spread, 100*d.Bound, verdict)
			cells = append(cells, c)
		}
	}
	data, _ := json.MarshalIndent(struct {
		Seed    uint64              `json:"seed"`
		Runs    int                 `json:"runs"`
		Cells   []aaCell            `json:"cells"`
		Digests map[string][]string `json:"result_digests"`
	}{cfg.seed, cfg.aa, cells, digests}, "", " ")
	if err := os.WriteFile(filepath.Join(cfg.out, "aa.json"), data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
