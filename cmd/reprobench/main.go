// Command reprobench regenerates every table and figure of the paper's
// evaluation (Section VI) on this machine. Each subcommand prints the
// rows/series of one experiment; benchmark/README.md records the
// mapping and the expected shapes.
//
// Usage:
//
//	reprobench [flags] <experiment>
//
// Experiments: fig4, tab2, fig6, fig7, fig8, fig9, fig10, tab3, tab4,
// fig11, fig12, pagerank, q6, dist (transport sweep), serve (query
// server sweep), all.
//
// Flags:
//
//	-n          input size (default 1<<22; the paper uses 1<<30)
//	-seed       workload seed (default 42)
//	-sf         TPC-H scale factor for tab4 (default 0.05)
//	-quick      reduced sweeps for smoke-testing the harness
//	-benchjson  switch the dist experiment to bench-cell mode: skip the
//	            correctness sweeps, measure the machine-readable
//	            benchmark cells (rows/s, B/op, allocs/op), and write
//	            them to this file; the repo commits a baseline as
//	            BENCH_dist.json and the nightly workflow diffs fresh
//	            runs against it (see cmd/benchdiff)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/dist/proc"
)

type config struct {
	n         int
	seed      uint64
	sf        float64
	quick     bool
	benchJSON string
	procs     bool
}

func main() {
	// When a dist -procs sweep re-executes this binary as a cluster
	// worker, become that worker before touching the flags.
	proc.MaybeWorkerMain()

	n := flag.Int("n", 1<<22, "number of input rows")
	seed := flag.Uint64("seed", 42, "workload seed")
	sf := flag.Float64("sf", 0.05, "TPC-H scale factor (tab4)")
	quick := flag.Bool("quick", false, "reduced sweeps")
	benchJSON := flag.String("benchjson", "", "dist only: run bench cells instead of the sweeps, write them to this file")
	procs := flag.Bool("procs", false, "dist only: run the cross-process equivalence matrix on spawned reproworker processes")
	flag.Parse()

	cfg := config{n: *n, seed: *seed, sf: *sf, quick: *quick, benchJSON: *benchJSON, procs: *procs}
	if cfg.quick && cfg.n > 1<<18 {
		cfg.n = 1 << 18
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: reprobench [flags] <fig4|tab2|fig6|fig7|fig8|fig9|fig10|tab3|tab4|fig11|fig12|pagerank|q6|dist|serve|all>")
		os.Exit(2)
	}

	fmt.Printf("# reprobench: %s, n=%d, seed=%d\n", bench.MachineInfo(), cfg.n, cfg.seed)

	run := map[string]func(config){
		"fig4":     runFig4,
		"tab2":     runTab2,
		"fig6":     runFig6,
		"fig7":     runFig7,
		"fig8":     runFig8,
		"fig9":     runFig9,
		"fig10":    runFig10,
		"tab3":     runTab3,
		"tab4":     runTab4,
		"fig11":    runFig11,
		"fig12":    runFig12,
		"pagerank": runPageRank,
		"q6":       runQ6,
		"dist":     runDist,
		"serve":    runServe,
	}
	name := flag.Arg(0)
	if name == "all" {
		for _, k := range []string{"fig4", "tab2", "fig6", "fig7", "fig8", "fig9",
			"fig10", "tab3", "tab4", "fig11", "fig12", "pagerank", "q6", "dist", "serve"} {
			run[k](cfg)
		}
		return
	}
	fn, ok := run[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "reprobench: unknown experiment %q\n", name)
		os.Exit(2)
	}
	fn(cfg)
}
