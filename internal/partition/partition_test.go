package partition

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestDoBasics(t *testing.T) {
	keys := []uint32{0, 1, 2, 3, 256, 257, 0}
	vals := []float64{10, 11, 12, 13, 14, 15, 16}
	out := Do(keys, vals, 0, 256, 1)
	if out.NumPartitions() != 256 {
		t.Fatalf("partitions = %d", out.NumPartitions())
	}
	pk, pv := out.Partition(0)
	// byte0 == 0: keys 0, 256, 0
	if len(pk) != 3 {
		t.Fatalf("partition 0 has %d keys", len(pk))
	}
	sum := 0.0
	for _, v := range pv {
		sum += v
	}
	if sum != 10+14+16 {
		t.Errorf("partition 0 values wrong: %v", pv)
	}
	pk, _ = out.Partition(1)
	if len(pk) != 2 { // 1 and 257
		t.Errorf("partition 1 has %d keys", len(pk))
	}
}

func TestPartitionIsPermutation(t *testing.T) {
	f := func(seed uint64, workersRaw uint8) bool {
		workers := int(workersRaw)%8 + 1
		keys := workload.Keys(seed, 5000, 10000)
		vals := make([]uint64, len(keys))
		for i := range vals {
			vals[i] = uint64(i) // unique tags to verify pairing
		}
		out := Do(keys, vals, 0, 256, workers)
		if len(out.Keys) != len(keys) {
			return false
		}
		seen := make([]bool, len(keys))
		for i, k := range out.Keys {
			tag := out.Vals[i]
			if seen[tag] || keys[tag] != k {
				return false // pair broken or duplicated
			}
			seen[tag] = true
		}
		// Every element within a partition has the right radix byte.
		for p := 0; p < out.NumPartitions(); p++ {
			pk, _ := out.Partition(p)
			for _, k := range pk {
				if int(k&255) != p {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicForFixedWorkers(t *testing.T) {
	keys := workload.Keys(3, 10000, 4096)
	vals := workload.Values64(4, 10000, workload.Exp1)
	a := Do(keys, vals, 0, 256, 4)
	b := Do(keys, vals, 0, 256, 4)
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || a.Vals[i] != b.Vals[i] {
			t.Fatal("partitioning not deterministic for fixed worker count")
		}
	}
}

func TestStableWithinWorkerChunks(t *testing.T) {
	// With one worker, partitioning is fully stable: relative order of
	// equal-byte keys is preserved.
	keys := []uint32{256, 0, 512, 0, 256}
	vals := []int{1, 2, 3, 4, 5}
	out := Do(keys, vals, 0, 256, 1)
	_, pv := out.Partition(0)
	want := []int{1, 2, 3, 4, 5}
	for i := range pv {
		if pv[i] != want[i] {
			t.Fatalf("order not stable: %v", pv)
		}
	}
}

// TestRecursiveDepths: at every depth the partitions are non-empty,
// disjoint key ranges that ascend with the partition index, their
// concatenation is a permutation of the input pairs, and no partition
// that a scatter produced holds more than half the input unless it
// holds a single key — also for key sets whose high digit does not
// spread them.
func TestRecursiveDepths(t *testing.T) {
	const n = 20000
	shapes := map[string]func(i int, k uint32) uint32{
		"dense":    func(_ int, k uint32) uint32 { return k },
		"based":    func(_ int, k uint32) uint32 { return 1<<31 + 12345 + k },
		"strided":  func(_ int, k uint32) uint32 { return k << 8 },
		"below256": func(_ int, k uint32) uint32 { return k & 255 },
		"single":   func(int, uint32) uint32 { return 7 },
		"outlier": func(i int, k uint32) uint32 {
			if i == n/2 {
				return 0xFFFFFFFF
			}
			return k
		},
		"clusters": func(i int, k uint32) uint32 { return uint32(i%3)<<30 | k>>uint(i%3) },
		"heavy": func(i int, k uint32) uint32 {
			if i%2 == 0 {
				return 1 << 15
			}
			return k
		},
	}
	base := workload.Keys(5, n, 1<<16)
	for name, shape := range shapes {
		keys := make([]uint32, n)
		tags := make([]int, n) // unique, to verify the pairing
		for i := range keys {
			keys[i], tags[i] = shape(i, base[i]), i
		}
		for _, depth := range []int{0, 1, 2} {
			for _, workers := range []int{1, 3} {
				parts := Recursive(keys, tags, depth, 256, workers)
				seen := make([]bool, n)
				prevHi := int64(-1)
				for p, pt := range parts {
					if len(pt.Keys) == 0 || len(pt.Keys) != len(pt.Vals) {
						t.Fatalf("%s depth %d: partition %d has %d keys, %d values", name, depth, p, len(pt.Keys), len(pt.Vals))
					}
					for i, k := range pt.Keys {
						if tag := pt.Vals[i]; seen[tag] || keys[tag] != k {
							t.Fatalf("%s depth %d: pair %d broken or duplicated", name, depth, tag)
						} else {
							seen[tag] = true
						}
					}
					lo, hi := keyRange(pt.Keys, 1)
					if int64(lo) <= prevHi {
						t.Fatalf("%s depth %d workers %d: partition %d starts at key %d, the one before ends at %d",
							name, depth, workers, p, lo, prevHi)
					}
					prevHi = int64(hi)
					if depth > 0 && 2*len(pt.Keys) > n && lo != hi {
						t.Fatalf("%s depth %d: partition %d holds %d of %d rows over keys %d..%d",
							name, depth, p, len(pt.Keys), n, lo, hi)
					}
				}
				if i := slices.Index(seen, false); i >= 0 {
					t.Fatalf("%s depth %d workers %d: row %d is in no partition", name, depth, workers, i)
				}
			}
		}
	}
	if parts := Recursive([]uint32{}, []int{}, 2, 256, 2); len(parts) != 0 {
		t.Errorf("empty input: %d partitions", len(parts))
	}
}

// TestScatterMatchesDo: a column scattered by the offsets of another
// call lands where Do itself would have put it, for every worker count
// (Do is stable), shift and fan-out.
func TestScatterMatchesDo(t *testing.T) {
	keys := workload.Keys(5, 10007, 1<<14)
	vals := workload.Values64(6, len(keys), workload.Exp1)
	other := make([]int32, len(keys))
	for i := range other {
		other[i] = int32(i)
	}
	for _, tc := range []struct {
		shift           uint
		fanout, workers int
	}{{0, 256, 1}, {0, 256, 3}, {8, 64, 4}, {0, 1, 2}, {4, 16, 7}} {
		byIndex := Do(keys, other, tc.shift, tc.fanout, tc.workers)
		want := Do(keys, vals, tc.shift, tc.fanout, 1).Vals
		got := Scatter(keys, byIndex.Off, vals, tc.shift)
		for i := range want {
			if got[i] != want[i] || got[i] != vals[byIndex.Vals[i]] {
				t.Fatalf("shift %d fanout %d workers %d: position %d holds %v, Do put %v there (row %d: %v)",
					tc.shift, tc.fanout, tc.workers, i, got[i], want[i], byIndex.Vals[i], vals[byIndex.Vals[i]])
			}
		}
	}
	if out := Scatter([]uint32{}, Do([]uint32{}, []float64{}, 0, 256, 2).Off, []float64{}, 0); len(out) != 0 {
		t.Errorf("empty input scattered to %d values", len(out))
	}
}

func TestEmptyAndSmallInputs(t *testing.T) {
	out := Do([]uint32{}, []float64{}, 0, 256, 4)
	if out.NumPartitions() != 256 || len(out.Keys) != 0 {
		t.Error("empty input mishandled")
	}
	out = Do([]uint32{7}, []float64{1}, 0, 256, 8)
	pk, pv := out.Partition(7)
	if len(pk) != 1 || pv[0] != 1 {
		t.Error("single element mishandled")
	}
}

func TestValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("length mismatch", func() { Do([]uint32{1}, []float64{1, 2}, 0, 256, 1) })
	mustPanic("bad fanout", func() { Do([]uint32{1}, []float64{1}, 0, 100, 1) })
	mustPanic("zero fanout", func() { Do([]uint32{1}, []float64{1}, 0, 0, 1) })
}

func TestDoBufferedMatchesDo(t *testing.T) {
	f := func(seed uint64, workersRaw uint8) bool {
		workers := int(workersRaw)%4 + 1
		keys := workload.Keys(seed, 3000, 1<<14)
		vals := workload.Values64(seed+1, 3000, workload.Exp1)
		a := Do(keys, vals, 0, 256, workers)
		b := DoBuffered(keys, vals, 0, 256, workers)
		if len(a.Keys) != len(b.Keys) {
			return false
		}
		for p := 0; p <= 256; p++ {
			if a.Off[p] != b.Off[p] {
				return false
			}
		}
		// Same multiset per partition (order within a worker segment is
		// stable for both, so outputs are in fact identical).
		for i := range a.Keys {
			if a.Keys[i] != b.Keys[i] || a.Vals[i] != b.Vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDoBufferedLargeFill(t *testing.T) {
	// More than swwcbSize elements per partition forces mid-stream
	// flushes.
	n := 256 * 200
	keys := make([]uint32, n)
	vals := make([]int, n)
	for i := range keys {
		keys[i] = uint32(i % 256)
		vals[i] = i
	}
	out := DoBuffered(keys, vals, 0, 256, 2)
	for p := 0; p < 256; p++ {
		pk, pv := out.Partition(p)
		if len(pk) != 200 {
			t.Fatalf("partition %d: %d elements", p, len(pk))
		}
		for i, k := range pk {
			if int(k) != p || vals[pv[i]%n] != pv[i] {
				t.Fatalf("partition %d corrupted", p)
			}
		}
	}
}

// TestDistinctBound: the bound must never undercount distinct keys (an
// aggregation table sized from it must not rehash), must be tight on
// dense domain-encoded ranges, and must fall back to the partition
// length on sparse keys.
func TestDistinctBound(t *testing.T) {
	const fanout = 256

	// Dense domain: keys 0..4095, each repeated 8 times. Partition p
	// holds 16 distinct keys spanning a range of 15·256, so the bound is
	// exactly 16 while the partition length is 128.
	var keys []uint32
	var vals []float64
	for rep := 0; rep < 8; rep++ {
		for k := uint32(0); k < 4096; k++ {
			keys = append(keys, k)
			vals = append(vals, 1)
		}
	}
	out := Do(keys, vals, 0, fanout, 2)
	for p := 0; p < out.NumPartitions(); p++ {
		pk, _ := out.Partition(p)
		distinct := make(map[uint32]bool)
		for _, k := range pk {
			distinct[k] = true
		}
		b := out.DistinctBound(p, fanout)
		if b < len(distinct) {
			t.Fatalf("partition %d: bound %d undercounts %d distinct keys", p, b, len(distinct))
		}
		if b != 16 {
			t.Fatalf("partition %d: dense bound = %d, want 16 (len %d)", p, b, len(pk))
		}
	}

	// Sparse random keys: the range argument is useless, so the bound
	// must cap at the partition length — and still never undercount.
	rng := workload.NewRNG(99)
	keys = keys[:0]
	vals = vals[:0]
	for i := 0; i < 20000; i++ {
		keys = append(keys, uint32(rng.Uint64()))
		vals = append(vals, 1)
	}
	out = Do(keys, vals, 0, fanout, 2)
	for p := 0; p < out.NumPartitions(); p++ {
		pk, _ := out.Partition(p)
		distinct := make(map[uint32]bool)
		for _, k := range pk {
			distinct[k] = true
		}
		b := out.DistinctBound(p, fanout)
		if b < len(distinct) || b > len(pk) {
			t.Fatalf("partition %d: bound %d outside [distinct %d, len %d]", p, b, len(distinct), len(pk))
		}
	}

	// Empty partition and unknown stride.
	empty := Do(nil, []float64(nil), 0, fanout, 1)
	if b := empty.DistinctBound(3, fanout); b != 0 {
		t.Fatalf("empty partition bound = %d", b)
	}
	single := Do([]uint32{7, 7, 7}, []float64{1, 2, 3}, 0, fanout, 1)
	if b := single.DistinctBound(7, 0); b != 1 {
		t.Fatalf("stride-0 single-key bound = %d, want 1", b)
	}
}
