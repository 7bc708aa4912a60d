package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rep(cells ...cell) report {
	return report{Schema: reportSchema, Go: "go1.24", Rows: 1 << 20, Cells: cells}
}

// TestDiffZeroOverlap: two reports whose cell names are disjoint must
// report matched == 0 — the condition main treats as a hard error under
// -strict — never a silent zero-regression pass.
func TestDiffZeroOverlap(t *testing.T) {
	base := rep(
		cell{Name: "shuffle/chan", RowsPerSec: 1e8},
		cell{Name: "gather/chan", RowsPerSec: 2e8},
	)
	cur := rep(
		cell{Name: "shuffle/tcp", RowsPerSec: 1e7},
		cell{Name: "serve/local", RowsPerSec: 3e7},
	)
	var out strings.Builder
	regressions, matched := diff(&out, base, cur, 0.25, 0.10)
	if matched != 0 {
		t.Fatalf("matched = %d for disjoint cell sets, want 0", matched)
	}
	if regressions != 0 {
		t.Fatalf("regressions = %d with nothing compared, want 0", regressions)
	}
	// The table must still surface both sides of the drift so the error
	// is diagnosable from the log alone.
	if !strings.Contains(out.String(), "(new cell, no baseline)") {
		t.Error("output does not mark the unmatched new cells")
	}
	if !strings.Contains(out.String(), "(baseline cell missing from new run)") {
		t.Error("output does not mark the orphaned baseline cells")
	}
}

// TestDiffOverlapCounts: matched counts exactly the intersection, and a
// throughput collapse beyond tolerance is flagged while an in-tolerance
// wobble is not.
func TestDiffOverlapCounts(t *testing.T) {
	base := rep(
		cell{Name: "shuffle/chan", RowsPerSec: 1e8, AllocsPerOp: 0},
		cell{Name: "gather/chan", RowsPerSec: 2e8, AllocsPerOp: 5},
		cell{Name: "retired/cell", RowsPerSec: 1e8},
	)
	cur := rep(
		cell{Name: "shuffle/chan", RowsPerSec: 4e7, AllocsPerOp: 0}, // -60%: regression
		cell{Name: "gather/chan", RowsPerSec: 1.9e8, AllocsPerOp: 5},
		cell{Name: "brand/new", RowsPerSec: 1e8},
	)
	var out strings.Builder
	regressions, matched := diff(&out, base, cur, 0.25, 0.10)
	if matched != 2 {
		t.Fatalf("matched = %d, want 2", matched)
	}
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (the -60%% shuffle cell)", regressions)
	}
}

// TestDiffAllocRegression: a 0 → 1 allocs/op step is flagged even
// though the absolute delta is 1 — the zero-alloc baseline is exempt
// from the ±1 jitter allowance.
func TestDiffAllocRegression(t *testing.T) {
	base := rep(cell{Name: "shuffle/chan", RowsPerSec: 1e8, AllocsPerOp: 0})
	cur := rep(cell{Name: "shuffle/chan", RowsPerSec: 1e8, AllocsPerOp: 1})
	var out strings.Builder
	regressions, matched := diff(&out, base, cur, 0.25, 0.10)
	if matched != 1 || regressions != 1 {
		t.Fatalf("matched, regressions = %d, %d, want 1, 1", matched, regressions)
	}

	// ...while 5 → 6 on a nonzero baseline stays within the jitter
	// allowance despite exceeding the fractional tolerance.
	base = rep(cell{Name: "gather/chan", RowsPerSec: 1e8, AllocsPerOp: 5})
	cur = rep(cell{Name: "gather/chan", RowsPerSec: 1e8, AllocsPerOp: 6})
	regressions, matched = diff(&out, base, cur, 0.25, 0.10)
	if matched != 1 || regressions != 0 {
		t.Fatalf("matched, regressions = %d, %d, want 1, 0", matched, regressions)
	}
}

// TestLoadAcceptsOnlyCurrentSchema: a report of any other schema is
// rejected instead of diffed on the assumption its cells mean the same.
func TestLoadAcceptsOnlyCurrentSchema(t *testing.T) {
	for schema, ok := range map[int]bool{reportSchema - 1: false, reportSchema: true, reportSchema + 1: false} {
		path := filepath.Join(t.TempDir(), "bench.json")
		if err := os.WriteFile(path, []byte(fmt.Sprintf(`{"schema": %d, "cells": []}`, schema)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := load(path); (err == nil) != ok {
			t.Errorf("schema %d: load error %v, want accepted=%v", schema, err, ok)
		}
	}
}
