// Command benchdiff compares two machine-readable benchmark reports
// produced by `reprobench dist -benchjson` (see BENCH_dist.json at the
// repo root for the committed baseline). Cells are matched by name;
// for each match it prints throughput and allocation deltas and flags
// regressions beyond the tolerances.
//
// By default benchdiff is warn-only (exit 0 regardless), because
// wall-clock throughput on shared CI runners is noisy; allocs/op is
// deterministic, so treat its regressions seriously. Pass -strict to
// exit 1 on any flagged regression (for local gating), or
// -tolerance <pct> to gate with an explicit throughput headroom: it
// sets the tolerated rows/s regression to pct% and exits non-zero on
// anything beyond it (the nightly bench-trajectory job runs with a
// generous -tolerance, so only an unambiguous regression fails the
// night, not runner noise).
//
// A comparison in which NO cell name matches between the two reports
// gates nothing — which is how a silent schema or cell-name drift turns
// the bench trajectory into an empty gate that "passes" every night.
// Zero overlap is therefore a hard error (exit 1) under -strict or
// -tolerance, and loudly warned about even in warn-only mode.
//
// Usage:
//
//	benchdiff [-rows-tol 0.25] [-allocs-tol 0.10] [-strict] [-tolerance pct] baseline.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type cell struct {
	Name        string  `json:"name"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// reportSchema is the BENCH_dist.json schema cmd/reprobench writes,
// and the only one accepted.
const reportSchema = 6

type report struct {
	Schema int    `json:"schema"`
	Go     string `json:"go"`
	Rows   int    `json:"rows"`
	Cells  []cell `json:"cells"`
}

func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return r, fmt.Errorf("%s: schema %d, want %d (the one cmd/reprobench writes)", path, r.Schema, reportSchema)
	}
	return r, nil
}

// diff compares cur against base cell by cell, printing the table to w.
// It returns the number of cells flagged as regressed and the number of
// cells matched by name — matched == 0 means the comparison gated
// nothing at all, which callers must treat as a failure of the
// comparison itself, not a pass.
func diff(w io.Writer, base, cur report, rowsTol, allocsTol float64) (regressions, matched int) {
	if base.Rows != cur.Rows {
		fmt.Fprintf(w, "note: row counts differ (baseline %d, new %d); throughput deltas are not comparable\n",
			base.Rows, cur.Rows)
	}
	baseBy := make(map[string]cell, len(base.Cells))
	for _, c := range base.Cells {
		baseBy[c.Name] = c
	}
	fmt.Fprintf(w, "%-28s %14s %14s %8s %10s %10s %8s\n",
		"cell", "base rows/s", "new rows/s", "Δ", "base allocs", "new allocs", "Δ")
	for _, c := range cur.Cells {
		b, ok := baseBy[c.Name]
		if !ok {
			fmt.Fprintf(w, "%-28s %s\n", c.Name, "(new cell, no baseline)")
			continue
		}
		matched++
		delete(baseBy, c.Name)
		rowsDelta, allocsDelta := "-", "-"
		flagged := ""
		if b.RowsPerSec > 0 && c.RowsPerSec > 0 {
			d := c.RowsPerSec/b.RowsPerSec - 1
			rowsDelta = fmt.Sprintf("%+.0f%%", d*100)
			if d < -rowsTol {
				flagged = "  << rows/s regression"
			}
		}
		if b.AllocsPerOp > 0 || c.AllocsPerOp > 0 {
			d := float64(c.AllocsPerOp-b.AllocsPerOp) / float64(max(b.AllocsPerOp, 1))
			allocsDelta = fmt.Sprintf("%+.0f%%", d*100)
			// The >1 absolute guard tolerates ±1 jitter on noisy cells,
			// but never on a zero-alloc baseline: 0 → 1 allocs/op is
			// exactly the regression the trajectory exists to catch.
			if d > allocsTol && (b.AllocsPerOp == 0 || c.AllocsPerOp-b.AllocsPerOp > 1) {
				flagged += "  << allocs/op regression"
			}
		}
		if flagged != "" {
			regressions++
		}
		fmt.Fprintf(w, "%-28s %14.0f %14.0f %8s %10d %10d %8s%s\n",
			c.Name, b.RowsPerSec, c.RowsPerSec, rowsDelta, b.AllocsPerOp, c.AllocsPerOp, allocsDelta, flagged)
	}
	for name := range baseBy {
		fmt.Fprintf(w, "%-28s %s\n", name, "(baseline cell missing from new run)")
	}
	return regressions, matched
}

func main() {
	rowsTol := flag.Float64("rows-tol", 0.25, "tolerated fractional rows/s regression")
	allocsTol := flag.Float64("allocs-tol", 0.10, "tolerated fractional allocs/op increase")
	strict := flag.Bool("strict", false, "exit non-zero on flagged regressions (and on zero cell overlap)")
	tolerance := flag.Float64("tolerance", -1, "percent rows/s regression tolerated before gating (sets -rows-tol to pct/100 and implies -strict; 0 gates on any regression)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] baseline.json new.json")
		os.Exit(2)
	}
	if *tolerance != -1 {
		// Explicitly set: validate and gate — including at 0, which
		// means "no headroom", not "flag absent".
		if *tolerance < 0 || *tolerance >= 100 {
			fmt.Fprintln(os.Stderr, "benchdiff: -tolerance must be a percentage in [0, 100)")
			os.Exit(2)
		}
		*rowsTol = *tolerance / 100
		*strict = true
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	regressions, matched := diff(os.Stdout, base, cur, *rowsTol, *allocsTol)

	if matched == 0 {
		// An empty intersection compares nothing: every baseline cell is
		// "missing" and every new cell is "new", so no regression can
		// ever be flagged. Under a gating run that must be a hard error,
		// or a renamed cell set silently retires the whole gate.
		fmt.Fprintf(os.Stderr, "benchdiff: no overlapping cells between %s (%d cells) and %s (%d cells) — nothing was compared\n",
			flag.Arg(0), len(base.Cells), flag.Arg(1), len(cur.Cells))
		if *strict {
			os.Exit(1)
		}
		fmt.Println("warn-only mode: exiting 0 despite zero overlap (pass -strict to gate)")
		return
	}
	if regressions > 0 {
		fmt.Printf("\n%d cell(s) regressed beyond tolerance (rows/s %.0f%%, allocs/op %.0f%%)\n",
			regressions, *rowsTol*100, *allocsTol*100)
		if *strict {
			os.Exit(1)
		}
		fmt.Println("warn-only mode: exiting 0 (pass -strict to gate)")
	}
}
