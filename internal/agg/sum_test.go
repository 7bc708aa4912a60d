package agg

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/workload"
)

// sumShapes are the key sets GroupBySum's matrix walks: key places row
// i, given k uniform over [0, groups). "spread" multiplies the ids over
// the whole uint32 range, so every part of every depth is wider than
// its table and probes.
var sumShapes = []keyShape{
	{name: "dense", groups: 1 << 10, rows: 1 << 13, key: func(_ int, k uint32) uint32 { return k }},
	{name: "single key", groups: 1, rows: 1 << 12, key: func(int, uint32) uint32 { return 7 }},
	{name: "empty", groups: 1},
	{name: "outlier", groups: 1 << 10, rows: 1 << 13, key: func(i int, k uint32) uint32 {
		if i == 1234 {
			return 0xFFFFFFFF
		}
		return k
	}},
	{name: "stride 256", groups: 1 << 8, rows: 1 << 12, key: func(_ int, k uint32) uint32 { return k << 8 }},
	{name: "based 2^31", groups: 1 << 10, rows: 1 << 13, key: func(_ int, k uint32) uint32 { return 1<<31 + k }},
	{name: "spread", groups: 1 << 10, rows: 1 << 13, key: func(_ int, k uint32) uint32 { return k * 4194319 }},
}

// sumSpecials are the values the matrix plants among ordinary ones: the
// signed zeros, the smallest subnormal, NaN, the infinities and 2^1000.
var sumSpecials = []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1), math.Ldexp(1, 1000)}

// oracleSums is the GROUP BY SUM reference that shares nothing with the
// operator: one unbuffered accumulator per key (repro.Accumulator),
// fed in row order, the groups in key order.
func oracleSums(keys []uint32, vals []float64) []groupSum {
	accs := map[uint32]*core.Sum64{}
	for i, k := range keys {
		if accs[k] == nil {
			a := core.NewSum64(core.DefaultLevels)
			accs[k] = &a
		}
		accs[k].Add(vals[i])
	}
	out := make([]groupSum, 0, len(accs))
	for _, k := range slices.Sorted(maps.Keys(accs)) {
		out = append(out, groupSum{k, math.Float64bits(accs[k].Value())})
	}
	return out
}

// sumRun runs GroupBySum in one forced configuration and returns the
// groups as it emitted them.
func sumRun(keys []uint32, vals []float64, depth, bsz, workers, hint int) []groupSum {
	return GroupBySum(keys, vals, core.DefaultLevels, bsz, Options{Depth: depth, Workers: workers, GroupHint: hint},
		func(k uint32, sum float64) groupSum { return groupSum{k, math.Float64bits(sum)} })
}

// TestGroupBySumMatrix: whatever the key shape, depth, buffer size,
// worker count and first table size — the table addressing a part
// directly or probing it, growing or not, buffering or not —
// GroupBySum emits the oracle's groups bit for bit, in key order,
// specials included.
func TestGroupBySumMatrix(t *testing.T) {
	for _, shape := range sumShapes {
		keys, vals := shape.generate()
		for i := range vals {
			if i%97 == 0 {
				vals[i] = sumSpecials[i%len(sumSpecials)]
			}
		}
		want := oracleSums(keys, vals)
		_, planned := Plan(shape.groups, len(keys), 8)
		for depth := 0; depth <= 2; depth++ {
			// Depth 0's tables are sized from the hint: a hint of one
			// makes them grow.
			hints := []int{shape.groups}
			if depth == 0 {
				hints = append(hints, 1)
			}
			for _, bsz := range []int{0, 8, 32, planned} {
				for _, workers := range []int{1, 2, 3, 7} {
					for _, hint := range hints {
						got := sumRun(keys, vals, depth, bsz, workers, hint)
						if !slices.Equal(got, want) {
							t.Fatalf("%s, depth %d, bsz %d, %d workers, hint %d: %s", shape.name, depth, bsz, workers, hint, sumDiff(got, want))
						}
					}
				}
			}
		}
	}
}

// TestGroupBySumChunkEdges: depth 0 cuts the rows into one chunk per
// worker with partition.EachChunk. One row runs one worker; nine rows in
// four chunks of three leave the fourth worker's table empty. Either
// way the groups carry the one-worker bits. (No rows is TestGroupBySumMatrix's
// "empty" shape.)
func TestGroupBySumChunkEdges(t *testing.T) {
	for _, n := range []int{1, 9} {
		keys, vals := make([]uint32, n), make([]float64, n)
		for i := range keys {
			keys[i], vals[i] = uint32(i%3), float64(i)*0.1+sumSpecials[i%len(sumSpecials)]
		}
		for _, bsz := range []int{0, 8} {
			want := sumRun(keys, vals, 0, bsz, 1, 4)
			if got := sumRun(keys, vals, 0, bsz, 4, 4); !slices.Equal(got, want) {
				t.Fatalf("%d rows, bsz %d, 4 workers: %s", n, bsz, sumDiff(got, want))
			}
		}
	}
}

// sumDiff describes where got first departs from want.
func sumDiff(got, want []groupSum) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("group %d is key %d bits %#x, the oracle's key %d bits %#x", i, got[i].key, got[i].bits, want[i].key, want[i].bits)
		}
	}
	return fmt.Sprintf("%d groups, the oracle has %d", len(got), len(want))
}

// TestSumTableBuffersOnlyArrivedGroups: a part's Bound counts its rows,
// not its groups, and a direct part's slots cover its whole key range;
// neither decides the buffers. The arena holds one buffer per group that
// arrived, in a direct part and a probed one, and a group the arena has
// no room for is summed without one, to the same bits.
func TestSumTableBuffersOnlyArrivedGroups(t *testing.T) {
	const bsz = 32
	keys := make([]uint32, 4096)
	for i := range keys {
		keys[i] = uint32(i%100) * 37 // 100 groups over a range of 3664
	}
	vals := workload.Values64(5, len(keys), workload.MixedMag)
	for _, c := range []struct {
		name   string
		lo, hi uint32
		direct bool
	}{{"direct", 0, 99 * 37, true}, {"probed", 0, math.MaxUint32, false}} {
		tb := newSumTable(len(keys), core.DefaultLevels, bsz)
		tb.fold(partition.Part[float64]{Keys: keys, Cols: [][]float64{vals}, Lo: c.lo, Hi: c.hi})
		if tb.direct != c.direct || tb.n != 100 || len(tb.arena) != 100*bsz {
			t.Fatalf("%s: direct %v, %d groups, arena of %d values; want %v, 100 groups, %d values",
				c.name, tb.direct, tb.n, len(tb.arena), c.direct, 100*bsz)
		}
		if got, want := drainSum(tb, func(k uint32, s float64) groupSum { return groupSum{k, math.Float64bits(s)} }), oracleSums(keys, vals); !slices.Equal(got, want) {
			t.Fatalf("%s: %s", c.name, sumDiff(got, want))
		}
	}

	// Groups past the arena's cap go unbuffered.
	big := MaxArenaBytes / 8 / 64
	many := make([]uint32, 3*big)
	for i := range many {
		many[i] = uint32(i % (big + 10))
	}
	vals = workload.Values64(6, len(many), workload.MixedMag)
	tb := newSumTable(big+10, core.DefaultLevels, 64)
	tb.fold(partition.Part[float64]{Keys: many, Cols: [][]float64{vals}, Lo: 0, Hi: uint32(big + 9)})
	if len(tb.arena) != big*64 || tb.n != big+10 {
		t.Fatalf("%d groups over a %d-buffer arena: %d buffers", tb.n, big, len(tb.arena)/64)
	}
	if got, want := drainSum(tb, func(k uint32, s float64) groupSum { return groupSum{k, math.Float64bits(s)} }), oracleSums(many, vals); !slices.Equal(got, want) {
		t.Fatalf("past the arena's cap: %s", sumDiff(got, want))
	}
}

// FuzzGroupBySum: rows decoded from the fuzzer's bytes — four a row: a
// 16-bit id placed by one of the matrix's key shapes, and a value that
// is a special or a signed mantissa byte at a binade anywhere in the
// exponent range — aggregate to the oracle's groups at the fuzzed depth,
// buffer size, worker count and first table size.
func FuzzGroupBySum(f *testing.F) {
	f.Add([]byte("\x01\x00\x05\x40\x10\x02\x00\xff\x01\x80"), uint8(0), uint8(1), uint8(1), uint8(0))
	f.Add([]byte("\xff\xff\x03\x00\x00\x00\x00\x05\x7f\x00\x01\x01\x06\x01\xff"), uint8(1), uint8(2), uint8(2), uint8(3))
	f.Add(make([]byte, 400), uint8(2), uint8(3), uint8(6), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, depth, bszSel, workers, shape uint8) {
		shapes := []func(uint32) uint32{
			func(k uint32) uint32 { return k },
			func(k uint32) uint32 { return k << 8 },
			func(k uint32) uint32 { return 1<<31 + k },
			func(k uint32) uint32 { return k * 65537 },
			func(k uint32) uint32 { return k & 0xFF },
			func(k uint32) uint32 { // the NULL sentinel
				if k == 0xFFFF {
					return 0xFFFFFFFF
				}
				return k
			},
		}
		place := shapes[int(shape)%len(shapes)]
		var keys []uint32
		var vals []float64
		for ; len(data) >= 4 && len(keys) < 1<<12; data = data[4:] {
			keys = append(keys, place(uint32(binary.LittleEndian.Uint16(data))))
			v := math.Ldexp(float64(int8(data[2])), int(data[3])*8-1074)
			if data[2]%16 == 0 {
				v = sumSpecials[int(data[3])%len(sumSpecials)]
			}
			vals = append(vals, v)
		}
		bsz := []int{0, 1, 8, 32, 64}[int(bszSel)%5]
		got := sumRun(keys, vals, int(depth%3), bsz, 1+int(workers%7), 1+int(shape)/8)
		if want := oracleSums(keys, vals); !slices.Equal(got, want) {
			t.Fatalf("depth %d, bsz %d, %d workers: %s", depth%3, bsz, 1+workers%7, sumDiff(got, want))
		}
	})
}
