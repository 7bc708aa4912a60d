package repro_test

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro"
	"repro/internal/workload"
)

// TestGroupBySumKeyShape is one cell of internal/agg's key-shape matrix
// through the facade and its planner: a NULL sentinel beside 2^16 dense
// ids (every row but one behind the same leading digit), on the plan for
// 2^16 groups. The groups are those of one unbuffered accumulator per
// key, bit for bit, in ascending key order.
func TestGroupBySumKeyShape(t *testing.T) {
	const rows = 1 << 18
	keys := workload.Keys(21, rows, 1<<16)
	keys[rows/3] = 0xFFFFFFFF
	vals := workload.Values64(22, rows, workload.MixedMag)
	want := accumulatorGroupBy(keys, vals)
	if !slices.IsSortedFunc(want, func(a, b repro.Group) int { return cmp.Compare(a.Key, b.Key) }) ||
		want[len(want)-1].Key != 0xFFFFFFFF {
		t.Fatalf("reference: %d groups, not in key order or without the sentinel last", len(want))
	}
	for _, workers := range []int{1, 2, 3, 7} {
		got := repro.GroupBySum(keys, vals, &repro.GroupByOptions{Groups: 1 << 16, Workers: workers})
		if len(got) != len(want) {
			t.Fatalf("%d workers: %d groups, reference has %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key || math.Float64bits(got[i].Sum) != math.Float64bits(want[i].Sum) {
				t.Fatalf("%d workers: group %d is %v, reference has %v", workers, i, got[i], want[i])
			}
		}
	}
}

// accumulatorGroupBy is a GROUP BY SUM reference that shares nothing
// with the operator: one unbuffered repro.Accumulator per key, fed in
// row order, drained in key order.
func accumulatorGroupBy(keys []uint32, vals []float64) []repro.Group {
	accs := map[uint32]*repro.Accumulator{}
	for i, k := range keys {
		a := accs[k]
		if a == nil {
			acc := repro.NewAccumulator(repro.DefaultLevels)
			a = &acc
			accs[k] = a
		}
		a.Add(vals[i])
	}
	out := make([]repro.Group, 0, len(accs))
	for _, k := range slices.Sorted(maps.Keys(accs)) {
		out = append(out, repro.Group{Key: k, Sum: accs[k].Value()})
	}
	return out
}

// TestGroupBySumLengthMismatch: columns of different lengths panic with
// the operator's message whatever the worker count — no worker count
// sums the shorter side instead (internal/agg's TestLengthMismatchPanics
// walks the depths).
func TestGroupBySumLengthMismatch(t *testing.T) {
	keys := workload.Keys(1, 1500, 7)
	vals := workload.Values64(2, 1500, workload.Exp1)
	for _, workers := range []int{1, 2, 3} {
		for _, c := range [][2]int{{1000, 1500}, {1500, 1000}} {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); msg != "agg: keys and values must have equal length" {
						t.Errorf("%d keys, %d values, %d workers: recovered %q", c[0], c[1], workers, msg)
					}
				}()
				repro.GroupBySum(keys[:c[0]], vals[:c[1]], &repro.GroupByOptions{Workers: workers})
			}()
		}
	}
}

// TestGroupBySumAllocBytes pins what a partitioned GROUP BY may
// allocate: one copy of the rows (12 bytes each: the partitions), the
// 16-byte groups twice (each partition's run, then their concatenation)
// and a worker's tables — never the accumulators again, which at 120
// bytes each were most of what the operator used to allocate and move.
func TestGroupBySumAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	const rows = 1 << 18
	vals := workload.Values64(32, rows, workload.MixedMag)
	for _, groups := range []int{1 << 16, 1 << 17} {
		keys := workload.Keys(31, rows, uint32(groups))
		opts := &repro.GroupByOptions{Groups: groups, Workers: 2}
		repro.GroupBySum(keys, vals, opts)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := repro.GroupBySum(keys, vals, opts)
		runtime.ReadMemStats(&after)
		limit := uint64(12*rows*5/4 + 48*groups + 1<<20)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
			t.Errorf("%d rows into %d groups: allocated %d bytes for %d groups, limit %d",
				rows, groups, alloc, len(got), limit)
		}
	}
}
