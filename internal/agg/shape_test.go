package agg

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hashagg"
	"repro/internal/partition"
	"repro/internal/workload"
)

// keyShape is one way a key column can sit in the 32-bit key space:
// key places row i, given k uniform over [0, groups). spreads marks the
// shapes whose leading digit leaves most rows in one partition: there
// the pass has to split again.
type keyShape struct {
	name         string
	groups, rows int
	key          func(i int, k uint32) uint32
	spreads      bool
}

// keyShapes is the matrix TestKeyShapes walks. The tables of an
// unpartitioned run hash by identity, so shapes that would pile up there
// (strided keys, clusters congruent modulo the table size) are kept
// from spending the test's time on probe chains.
var keyShapes = []keyShape{
	{name: "dense", groups: 1 << 14, rows: 1 << 15, key: func(_ int, k uint32) uint32 { return k }},
	{name: "based 2^31", groups: 1 << 14, rows: 1 << 15, key: func(_ int, k uint32) uint32 { return 1<<31 + k }},
	// min ^ max spans a carry: the keys differ in one bit more than
	// their count needs.
	{name: "based 2^31+12345", groups: 1 << 14, rows: 1 << 15, key: func(_ int, k uint32) uint32 { return 1<<31 + 12345 + k }},
	// Every row in one partition of a pass on the low byte.
	{name: "stride 256", groups: 1 << 12, rows: 1 << 16, key: func(_ int, k uint32) uint32 { return k << 8 }},
	// A NULL sentinel beside 2^16 dense ids.
	{name: "outlier", groups: 1 << 16, rows: 1 << 16, spreads: true, key: func(i int, k uint32) uint32 {
		if i == 12345 {
			return 0xFFFFFFFF
		}
		return k
	}},
	{name: "clusters", groups: 1 << 13, rows: 1 << 16, spreads: true, key: func(i int, k uint32) uint32 {
		if i%8 < 5 {
			return k
		}
		return 0xF0000000 + 1<<13 + k
	}},
	{name: "heavy key", groups: 1 << 14, rows: 1 << 15, spreads: true, key: func(i int, k uint32) uint32 {
		if i%2 == 0 {
			return 1 << 13
		}
		return k
	}},
	{name: "below 256", groups: 256, rows: 1 << 15, key: func(_ int, k uint32) uint32 { return k }},
	{name: "single key", groups: 1, rows: 1 << 15, key: func(int, uint32) uint32 { return 7 }},
	{name: "empty", groups: 1},
}

func (s keyShape) generate() ([]uint32, []float64) {
	keys := workload.Keys(11, s.rows, uint32(s.groups))
	for i, k := range keys {
		keys[i] = s.key(i, k)
	}
	return keys, workload.Values64(12, s.rows, workload.MixedMag)
}

// groupSum is a finished group: the key and the bits of its sum.
type groupSum struct {
	key  uint32
	bits uint64
}

// shapeRun runs one forced configuration (bsz 0: unbuffered) and
// returns the groups exactly as the operator emitted them.
func shapeRun(keys []uint32, vals []float64, opt Options, bsz int) []groupSum {
	if bsz == 0 {
		return Aggregate[float64, core.Sum64](keys, vals,
			func() core.Sum64 { return core.NewSum64(core.DefaultLevels) }, opt,
			func(k uint32, a *core.Sum64) groupSum { return groupSum{k, math.Float64bits(a.Value())} })
	}
	return Aggregate[float64, core.Buffered64](keys, vals,
		func() core.Buffered64 { return core.NewBuffered64(core.DefaultLevels, bsz) }, opt,
		func(k uint32, a *core.Buffered64) groupSum { return groupSum{k, math.Float64bits(a.Value())} })
}

// TestKeyShapes: wherever the keys sit in the key space, every worker
// count, depth, hash function and payload emits the groups of the
// one-worker unpartitioned Sum64 run, bit for bit, in ascending key
// order with nothing sorting them afterwards; and where the leading
// digit does not spread the keys, no partition of the pass is left with
// more than half the rows over more than one key. -short (the race job)
// walks half the worker counts per shape, a different half for
// neighbouring shapes.
func TestKeyShapes(t *testing.T) {
	allWorkers := []int{1, 2, 3, 7}
	for si, shape := range keyShapes {
		keys, vals := shape.generate()
		want := shapeRun(keys, vals, Options{Workers: 1, GroupHint: shape.groups}, 0)
		slices.SortFunc(want, func(a, b groupSum) int { return cmp.Compare(a.key, b.key) })
		if distinct := workload.DistinctGroups(keys); len(want) != distinct {
			t.Fatalf("%s: reference has %d groups, the keys %d", shape.name, len(want), distinct)
		}
		for wi, workers := range allWorkers {
			if testing.Short() && (si+wi)%2 != 0 {
				continue
			}
			for depth := 0; depth <= 2; depth++ {
				if shape.spreads && depth > 0 {
					for p, pt := range partition.Recursive(keys, [][]float64{vals}, depth, DefaultFanout, workers) {
						if 2*len(pt.Keys) > len(keys) && pt.Bound() > 1 {
							t.Fatalf("%s, depth %d, %d workers: partition %d holds %d of %d rows over several keys",
								shape.name, depth, workers, p, len(pt.Keys), len(keys))
						}
					}
				}
				for _, hash := range []hashagg.Hash{hashagg.Identity, hashagg.Multiplicative} {
					for _, bsz := range []int{0, 64} {
						got := shapeRun(keys, vals, Options{Depth: depth, Workers: workers, Hash: hash, GroupHint: shape.groups}, bsz)
						if !slices.Equal(got, want) {
							sorted := slices.IsSortedFunc(got, func(a, b groupSum) int { return cmp.Compare(a.key, b.key) })
							t.Fatalf("%s, depth %d, %d workers, hash %d, bsz %d: %d groups (sorted: %v) differ from the reference's %d",
								shape.name, depth, workers, hash, bsz, len(got), sorted, len(want))
						}
					}
				}
			}
		}
	}
}

// TestLengthMismatchPanics: keys and values of different lengths are
// refused before any worker sees them, whatever the worker count and
// depth — not aggregated over the shorter side by some worker counts
// and refused by others.
func TestLengthMismatchPanics(t *testing.T) {
	keys := workload.Keys(1, 1500, 7)
	vals := workload.Values64(2, 1500, workload.Exp1)
	for _, workers := range []int{1, 2, 3} {
		for _, depth := range []int{0, 1} {
			for _, c := range [][2]int{{1000, 1500}, {1500, 1000}} {
				func() {
					defer func() {
						if msg := fmt.Sprint(recover()); msg != "agg: keys and values must have equal length" {
							t.Errorf("%d keys, %d values, %d workers, depth %d: recovered %q", c[0], c[1], workers, depth, msg)
						}
					}()
					shapeRun(keys[:c[0]], vals[:c[1]], Options{Depth: depth, Workers: workers}, 0)
				}()
			}
		}
	}
}
