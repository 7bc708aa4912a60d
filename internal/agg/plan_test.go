package agg

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hashagg"
	"repro/internal/workload"
)

// groupBits runs one forced operator configuration — bsz 0 is the
// unbuffered payload, as in Plan — and returns its groups key-sorted,
// sums as bits.
func groupBits(keys []uint32, vals []float64, opt Options, bsz int) []Entry[uint64] {
	var out []Entry[uint64]
	if bsz == 0 {
		for _, e := range PartitionAndAggregate[float64, core.Sum64](keys, vals,
			func() core.Sum64 { return core.NewSum64(core.DefaultLevels) }, opt) {
			out = append(out, Entry[uint64]{Key: e.Key, Agg: math.Float64bits(e.Agg.Value())})
		}
	} else {
		for _, e := range PartitionAndAggregate[float64, core.Buffered64](keys, vals,
			func() core.Buffered64 { return core.NewBuffered64(core.DefaultLevels, bsz) }, opt) {
			out = append(out, Entry[uint64]{Key: e.Key, Agg: math.Float64bits(e.Agg.Value())})
		}
	}
	slices.SortFunc(out, func(a, b Entry[uint64]) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// TestPlanBoundariesBitIdentical: whatever the planner picks, and
// whatever it would have picked one group to either side of each of
// its boundaries, the result carries the same bits. Every forced
// depth × buffered/unbuffered × worker count × hash function is
// compared against one single-worker unbuffered run, at group counts
// one below, at and one above every depth threshold of both repro
// models and at rows/groups on both sides of the buffering floor. The
// depth-2 thresholds sit at tens of millions of groups; there the group
// count is an estimate over 2^16 rows (which the planner clamps to, and
// the forced configurations do not).
func TestPlanBoundariesBitIdentical(t *testing.T) {
	type point struct{ groups, rows int }
	var points []point
	for i, models := range [][]int{
		{ThresholdsReproBuffered[0], ThresholdsReproUnbuffered[0]},
		{ThresholdsReproBuffered[1], ThresholdsReproUnbuffered[1]},
	} {
		for _, th := range models {
			for _, g := range []int{th - 1, th, th + 1} {
				if i == 1 {
					points = append(points, point{g, 1 << 16})
					continue
				}
				for _, perGroup := range []int{1, 4, 8, 64} {
					points = append(points, point{g, g * perGroup})
				}
			}
		}
	}
	for _, pt := range points {
		keys := workload.Keys(uint64(pt.groups), pt.rows, uint32(pt.groups))
		vals := workload.Values64(uint64(pt.rows), pt.rows, workload.MixedMag)
		tag := fmt.Sprintf("%d groups, %d rows", pt.groups, pt.rows)
		hint := min(pt.groups, pt.rows) // forced depth-0 tables are sized by what can arrive
		want := groupBits(keys, vals, Options{Workers: 1, GroupHint: hint}, 0)
		check := func(cfg string, opt Options, bsz int) {
			t.Helper()
			if got := groupBits(keys, vals, opt, bsz); !slices.Equal(got, want) {
				t.Fatalf("%s, %s: %d groups differ from the reference's %d", tag, cfg, len(got), len(want))
			}
		}

		planDepth, planBsz := Plan(pt.groups, pt.rows, 8)
		if planBsz != 0 && planBsz < MinBufferSize {
			t.Fatalf("%s: Plan returned a %d-value buffer", tag, planBsz)
		}
		check("the plan", Options{Depth: planDepth, GroupHint: pt.groups}, planBsz)

		full := pt.groups < 1<<17 && pt.rows < 1<<17 // the whole matrix on the small points, its corners on the big ones
		for depth := 0; depth <= 2; depth++ {
			for _, bsz := range []int{0, BufferSizeAt(pt.groups, depth, 8)} {
				for _, workers := range []int{1, 2, 3} {
					for _, hash := range []hashagg.Hash{hashagg.Identity, hashagg.Multiplicative} {
						if !full && (workers != depth+1 || (hash == hashagg.Identity) != (bsz == 0)) {
							continue
						}
						opt := Options{Depth: depth, Workers: workers, Hash: hash, GroupHint: hint}
						check(fmt.Sprintf("depth %d bsz %d workers %d hash %d", depth, bsz, workers, hash), opt, bsz)
					}
				}
			}
		}
	}
}

// TestPlan pins the planner's decisions at the points the benchmark
// workloads sit on and at its own boundaries.
func TestPlan(t *testing.T) {
	const rows = 1 << 22
	buf, unbuf := ThresholdsReproBuffered, ThresholdsReproUnbuffered
	for _, c := range []struct {
		groups, rows, depth, bsz int
	}{
		{1 << 8, rows, 0, 512},    // buffers fill the cache budget
		{1 << 16, rows, 1, 64},    // partitioned; a group only ever sees 64 values
		{1 << 20, rows, 1, 0},     // four values per group: buffers cannot pay
		{1 << 12, 1 << 16, 0, 0},  // 16 values per group: still under the floor
		{1 << 12, 1 << 17, 0, 32}, // exactly the floor
		{1 << 12, 0, 0, 0},
		{0, rows, 0, MaxBufferSize},
		{1 << 30, 1000, 0, 0},    // an estimate above the row count is the row count
		{buf[0] - 1, rows, 0, 0}, // under 32 values per group fit, unpartitioned
		{buf[0], rows, 1, 512},
		{1 << 22, 1 << 27, 1, 0}, // same at depth 1, however many values arrive
		{unbuf[0] - 1, unbuf[0] - 1, 0, 0},
		{unbuf[0], unbuf[0], 1, 0},
		{unbuf[1] - 1, unbuf[1] - 1, 1, 0},
		{unbuf[1], unbuf[1], 2, 0},
	} {
		if depth, bsz := Plan(c.groups, c.rows, 8); depth != c.depth || bsz != c.bsz {
			t.Errorf("Plan(%d groups, %d rows) = depth %d bsz %d, want depth %d bsz %d",
				c.groups, c.rows, depth, bsz, c.depth, c.bsz)
		}
	}
	// The first crossovers sit in the octave BenchmarkGroupByCrossover
	// measured them in, and no table has a third level.
	for _, c := range []struct {
		name   string
		got    DepthThresholds
		lo, hi int
	}{
		{"unbuffered", unbuf, 1 << 15, 1 << 16},
		{"buffered", buf, 1 << 13, 1 << 14},
	} {
		if c.got[0] <= c.lo || c.got[0] >= c.hi {
			t.Errorf("%s: first threshold %d outside (%d, %d)", c.name, c.got[0], c.lo, c.hi)
		}
	}
	for _, th := range []DepthThresholds{ThresholdsBuiltin, unbuf, buf} {
		if len(th) != 2 {
			t.Errorf("thresholds %v: want two levels", th)
		}
	}
}
