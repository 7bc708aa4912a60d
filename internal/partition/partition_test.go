package partition

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

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
// disjoint key ranges that ascend with the partition index and lie in
// their [Lo, Hi], their concatenation is a permutation of the input
// pairs, and no partition that a scatter produced holds more than half
// the input unless it holds a single key — also for key sets whose high
// digit does not spread them.
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
				parts := Recursive(keys, [][]int{tags}, depth, 256, workers)
				seen := make([]bool, n)
				prevHi := int64(-1)
				for p, pt := range parts {
					if len(pt.Keys) == 0 || len(pt.Keys) != len(pt.Cols[0]) {
						t.Fatalf("%s depth %d: partition %d has %d keys, %d values", name, depth, p, len(pt.Keys), len(pt.Cols[0]))
					}
					for i, k := range pt.Keys {
						if tag := pt.Cols[0][i]; seen[tag] || keys[tag] != k {
							t.Fatalf("%s depth %d: pair %d broken or duplicated", name, depth, tag)
						} else {
							seen[tag] = true
						}
					}
					lo, hi := keyRange(pt.Keys, 1)
					if lo < pt.Lo || hi > pt.Hi {
						t.Fatalf("%s depth %d workers %d: partition %d holds keys %d..%d outside its range %d..%d",
							name, depth, workers, p, lo, hi, pt.Lo, pt.Hi)
					}
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
	for _, depth := range []int{0, 2} {
		if parts := Recursive([]uint32{}, [][]int{{}}, depth, 256, 2); len(parts) != 0 {
			t.Errorf("empty input, depth %d: %d partitions", depth, len(parts))
		}
	}
}

// TestSplitMatchesRecursive: Split from the depth-0 part returns the
// parts of Recursive at depth 1 — keys, columns and ranges alike — for
// every key shape, the NULL-sentinel outlier (whose overfull partition
// is split again) among them, with or without an arena. One arena
// serves inputs of changing size, shape and column count in turn, so
// stale rows of a larger scatter would show; the partitions of its
// first pass are carved from it.
func TestSplitMatchesRecursive(t *testing.T) {
	shapes := map[string]func(i, n int, k uint32) uint32{
		"dense":   func(_, _ int, k uint32) uint32 { return k },
		"based":   func(_, _ int, k uint32) uint32 { return 1<<31 + 12345 + k },
		"single":  func(int, int, uint32) uint32 { return 7 },
		"strided": func(_, _ int, k uint32) uint32 { return k << 8 },
		"outlier": func(i, n int, k uint32) uint32 {
			if i == n/2 {
				return 0xFFFFFFFF
			}
			return k
		},
	}
	// 2^18 rows × (4 + 16) bytes stream their scatter; 3000 do not.
	sizes := []int{1 << 18, 3000, 1 << 18}
	var arena Arena[float64]
	for round, n := range sizes {
		base := workload.Keys(uint64(9+round), n, 1<<16)
		vals := workload.Values64(uint64(3+round), n, workload.MixedMag)
		for name, shape := range shapes {
			keys := make([]uint32, n)
			for i := range keys {
				keys[i] = shape(i, n, base[i])
			}
			for _, cols := range [][][]float64{{vals, nil, vals}, {nil, vals}, nil} {
				for _, workers := range []int{1, 3} {
					want := Recursive(keys, cols, 1, 256, workers)
					whole := Recursive(keys, cols, 0, 256, workers)[0]
					for _, a := range []*Arena[float64]{nil, &arena} {
						got := Split(whole, 256, workers, a)
						if len(got) != len(want) {
							t.Fatalf("%s n=%d workers %d arena %v: %d parts, want %d", name, n, workers, a != nil, len(got), len(want))
						}
						for p := range want {
							g, w := got[p], want[p]
							if g.Lo != w.Lo || g.Hi != w.Hi || !slices.Equal(g.Keys, w.Keys) || len(g.Cols) != len(w.Cols) {
								t.Fatalf("%s n=%d workers %d arena %v: part %d differs from Recursive's", name, n, workers, a != nil, p)
							}
							for c := range w.Cols {
								if (g.Cols[c] == nil) != (w.Cols[c] == nil) || !slices.Equal(g.Cols[c], w.Cols[c]) {
									t.Fatalf("%s n=%d workers %d arena %v: part %d column %d differs from Recursive's", name, n, workers, a != nil, p, c)
								}
							}
						}
						if a != nil && name == "dense" && !inSlab(got[0].Keys, arena.keys) {
							t.Fatalf("n=%d workers %d: the first part's keys are not carved from the arena", n, workers)
						}
					}
				}
			}
		}
	}
	if parts := Split(Part[float64]{}, 256, 2, &arena); len(parts) != 0 {
		t.Errorf("empty input: %d partitions", len(parts))
	}
}

// inSlab reports whether s lies inside slab's backing array.
func inSlab(s, slab []uint32) bool {
	if len(s) == 0 || cap(slab) == 0 {
		return false
	}
	full := slab[:cap(slab)]
	lo, hi := uintptr(unsafe.Pointer(&full[0])), uintptr(unsafe.Pointer(&full[len(full)-1]))
	at := uintptr(unsafe.Pointer(&s[0]))
	return lo <= at && at <= hi
}

// TestRecursiveCarriesColumns: every non-nil column moves with the keys,
// row for row, at every depth and worker count; a nil column stays nil
// in every partition, and with no column at all the keys are still
// partitioned.
func TestRecursiveCarriesColumns(t *testing.T) {
	const rows, ncols = 5000, 3
	keys := workload.Keys(77, rows, 1<<12)
	// Row r carries r*ncols+c in column c, so a partitioned value names
	// the source row it came from.
	cols := make([][]float64, ncols)
	for c := range cols {
		cols[c] = make([]float64, rows)
		for r := range cols[c] {
			cols[c][r] = float64(r*ncols + c)
		}
	}
	for _, carry := range [][]int{{0, 2}, {0, 1, 2}, {1}, nil} {
		in := make([][]float64, ncols)
		for _, c := range carry {
			in[c] = cols[c]
		}
		for _, depth := range []int{0, 1, 2} {
			for _, workers := range []int{1, 3} {
				total := 0
				for p, pt := range Recursive(keys, in, depth, 256, workers) {
					total += len(pt.Keys)
					for c := range cols {
						if want := slices.Contains(carry, c); (pt.Cols[c] != nil) != want {
							t.Fatalf("carry %v: partition %d column %d carried = %v, want %v", carry, p, c, pt.Cols[c] != nil, want)
						}
					}
					for i, k := range pt.Keys {
						for _, c := range carry {
							r := int(pt.Cols[c][i]) / ncols
							if keys[r] != k || pt.Cols[c][i] != cols[c][r] {
								t.Fatalf("carry %v, depth %d, %d workers: partition %d position %d holds key %d beside column %d's value of row %d (key %d)",
									carry, depth, workers, p, i, k, c, r, keys[r])
							}
						}
					}
				}
				if total != rows {
					t.Fatalf("carry %v, depth %d: %d rows partitioned, want %d", carry, depth, total, rows)
				}
			}
		}
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
	mustPanic("shift past the key", func() { Do([]uint32{1}, []float64{1}, 32, 256, 1) })
	mustPanic("column length mismatch", func() { Recursive([]uint32{1}, [][]float64{nil, {1, 2}}, 1, 256, 1) })
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

// TestPartBound: a partition's bound must never undercount its distinct
// keys (an aggregation table sized from it must not rehash), must be
// tight on dense domain-encoded ranges, and must fall back to the
// partition length on sparse keys.
func TestPartBound(t *testing.T) {
	distinct := func(keys []uint32) int {
		seen := make(map[uint32]bool)
		for _, k := range keys {
			seen[k] = true
		}
		return len(seen)
	}
	// Dense domain: keys 0..4095, each repeated 8 times. A pass splits
	// them into 256 ranges of 16 keys, so each bound is exactly 16 while
	// the partition length is 128.
	var keys []uint32
	for rep := 0; rep < 8; rep++ {
		for k := uint32(0); k < 4096; k++ {
			keys = append(keys, k)
		}
	}
	vals := [][]float64{make([]float64, len(keys))}
	parts := Recursive(keys, vals, 1, 256, 2)
	for p, pt := range parts {
		if b := pt.Bound(); b != 16 || distinct(pt.Keys) != 16 {
			t.Fatalf("partition %d: dense bound = %d for %d distinct keys, want 16 (len %d)", p, b, distinct(pt.Keys), len(pt.Keys))
		}
	}
	if whole := Recursive(keys, vals, 0, 256, 2); len(whole) != 1 || whole[0].Bound() != 4096 {
		t.Fatalf("depth 0: %d parts, bound %d, want one of 4096", len(whole), whole[0].Bound())
	}

	// Sparse random keys: the range argument is useless, so the bound
	// must cap at the partition length — and still never undercount.
	rng := workload.NewRNG(99)
	keys = keys[:0]
	for i := 0; i < 20000; i++ {
		keys = append(keys, uint32(rng.Uint64()))
	}
	for _, depth := range []int{0, 1, 2} {
		for p, pt := range Recursive(keys, [][]float64{nil}, depth, 256, 2) {
			if b := pt.Bound(); b < distinct(pt.Keys) || b > len(pt.Keys) {
				t.Fatalf("depth %d partition %d: bound %d outside [distinct %d, len %d]", depth, p, b, distinct(pt.Keys), len(pt.Keys))
			}
		}
	}

	// A single key, however often and at whatever depth, is one group.
	for _, depth := range []int{0, 1} {
		if single := Recursive([]uint32{7, 7, 7}, [][]float64{{1, 2, 3}}, depth, 256, 1); len(single) != 1 || single[0].Bound() != 1 {
			t.Fatalf("depth %d: single key split into %d parts, bound %d", depth, len(single), single[0].Bound())
		}
	}
}
