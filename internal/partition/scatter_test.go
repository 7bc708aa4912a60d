package partition

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/workload"
)

// storesUnderTest returns the Go block store and, where the build has a
// different one (SSE2 streaming stores on amd64), that one too.
func storesUnderTest(t testing.TB) []*blockStore {
	ss := []*blockStore{&goStore}
	if streamStore.name != goStore.name {
		return append(ss, &streamStore)
	}
	t.Logf("no streaming store in this build: only %q is exercised", goStore.name)
	return ss
}

// forced picks st for every scatter, whatever its size.
func forced(st *blockStore) func(int) *blockStore { return func(int) *blockStore { return st } }

// referenceDo is Do as a stable counting sort on the digit.
func referenceDo[V Scalar](keys []uint32, vals []V, shift uint, fanout int) Output[V] {
	mask := uint32(fanout - 1)
	off := make([]int, fanout+1)
	for _, k := range keys {
		off[(k>>shift)&mask+1]++
	}
	for p := range fanout {
		off[p+1] += off[p]
	}
	out := Output[V]{Keys: make([]uint32, len(keys)), Vals: make([]V, len(keys)), Off: off}
	at := slices.Clone(off)
	for i, k := range keys {
		p := (k >> shift) & mask
		out.Keys[at[p]], out.Vals[at[p]] = k, vals[i]
		at[p]++
	}
	return out
}

// checkParts holds parts, Recursive's result, to a counting sort on the
// parts' own key ranges: part i must hold, in input order, every input
// row whose key lies in [Lo, Hi], every carried column beside its key.
func checkParts[V Scalar](t *testing.T, what string, keys []uint32, cols [][]V, parts []Part[V]) {
	t.Helper()
	at := make([]int, len(parts)+1)
	dest := make([]int, len(keys))
	for i, k := range keys {
		p := sort.Search(len(parts), func(p int) bool { return parts[p].Hi >= k })
		if p == len(parts) || k < parts[p].Lo {
			t.Fatalf("%s: key %d of row %d is in no part's range", what, k, i)
		}
		dest[i] = p
		at[p+1]++
	}
	for p, pt := range parts {
		if len(pt.Keys) != at[p+1] {
			t.Fatalf("%s: part %d [%d, %d] holds %d rows, want %d", what, p, pt.Lo, pt.Hi, len(pt.Keys), at[p+1])
		}
		at[p+1] = 0
	}
	for i, k := range keys {
		p := dest[i]
		j := at[p+1]
		at[p+1]++
		if got := parts[p].Keys[j]; got != k {
			t.Fatalf("%s: part %d row %d holds key %d, want %d (input row %d)", what, p, j, got, k, i)
		}
		for c, col := range cols {
			if (parts[p].Cols[c] == nil) != (col == nil) {
				t.Fatalf("%s: part %d column %d carried = %v, want %v", what, p, c, parts[p].Cols[c] != nil, col != nil)
			}
			if col != nil && parts[p].Cols[c][j] != col[i] {
				t.Fatalf("%s: part %d row %d column %d holds %v, want %v (input row %d)", what, p, j, c, parts[p].Cols[c][j], col[i], i)
			}
		}
	}
}

func checkDo[V Scalar](t *testing.T, what string, got, want Output[V]) {
	t.Helper()
	if !slices.Equal(got.Off, want.Off) {
		t.Fatalf("%s: offsets %v, want %v", what, got.Off, want.Off)
	}
	for i := range want.Keys {
		if got.Keys[i] != want.Keys[i] || got.Vals[i] != want.Vals[i] {
			t.Fatalf("%s: row %d is ⟨%d, %v⟩, want ⟨%d, %v⟩", what, i, got.Keys[i], got.Vals[i], want.Keys[i], want.Vals[i])
		}
	}
}

// scatterShapes are key columns whose partitions exercise every block
// boundary: sizes of 0, 1, 15, 16 and 17 rows; per-worker ranges that
// start and end mid-block (23 rows of every partition in every chunk of
// workers); and a partition holding most rows, which Recursive splits
// again. Every digit is the key's bits 4..11, the digit Recursive at
// fanout 256 routes on when keys span bits 0..11.
func scatterShapes(workers int) map[string][]uint32 {
	sizes := []int{0, 1, 15, 16, 17}
	var sized []uint32
	for p := range 256 {
		for r := range sizes[p%len(sizes)] {
			sized = append(sized, uint32(p<<4|r%16))
		}
	}
	sized = append(sized, 0, 0xFFF) // span bits 0..11 however the sizes fall
	workload.Shuffle(uint64(workers), sized)

	midBlock := make([]uint32, workers*256*23)
	for i := range midBlock {
		midBlock[i] = uint32(i%256<<4 | i/256%16)
	}

	rng := workload.NewRNG(uint64(workers))
	overfull := make([]uint32, 5000)
	for i := range overfull {
		overfull[i] = rng.Uint32n(16) // digit 0: split again on bits 0..3
		if i%10 == 0 {
			overfull[i] = rng.Uint32n(1 << 12)
		}
	}
	return map[string][]uint32{"sized": sized, "mid-block": midBlock, "overfull": overfull}
}

// tagged returns columns that name their row: column c of row i holds
// i·ncols + c, converted to V.
func tagged[V Scalar](n, ncols int) [][]V {
	cols := make([][]V, ncols)
	for c := range cols {
		cols[c] = make([]V, n)
		for i := range cols[c] {
			cols[c][i] = V(i*ncols + c)
		}
	}
	return cols
}

func runStoresAgree[V Scalar](t *testing.T, st *blockStore) {
	for _, workers := range []int{1, 2, 3, 7} {
		for name, keys := range scatterShapes(workers) {
			cols := tagged[V](len(keys), 2)
			what := fmt.Sprintf("%s %T %s workers %d", st.name, cols[0][0], name, workers)
			ref := referenceDo(keys, cols[0], 4, 256)
			checkDo(t, what+" Do", do(keys, cols[0], 4, 256, workers, forced(st)), ref)
			carries := map[string][][]V{"one column": cols[:1], "two columns": cols, "the second column": {nil, cols[1]}, "keys only": {nil}}
			for _, depth := range []int{1, 2} {
				for carry, in := range carries {
					parts := recursive(keys, in, depth, 256, workers, forced(st))
					checkParts(t, fmt.Sprintf("%s Recursive depth %d, %s", what, depth, carry), keys, in, parts)
				}
			}
		}
	}
}

// TestScatterStoresAgree runs Do and Recursive (depth 1 and 2, the
// overfull-partition repair, keys only and several columns) with every
// block store forced on regardless of size, for every column width and
// several worker counts, against counting-sort references.
func TestScatterStoresAgree(t *testing.T) {
	for _, st := range storesUnderTest(t) {
		t.Run(st.name, func(t *testing.T) {
			runStoresAgree[float64](t, st)
			runStoresAgree[int64](t, st)
			runStoresAgree[float32](t, st)
			runStoresAgree[uint32](t, st)
		})
	}
}

// TestScatterStaysInItsRanges calls the driver for one worker's chunk at
// a time on destinations filled with a sentinel: every position in that
// worker's cursor ranges must hold its row, and every other position the
// sentinel — a block written whole where it is shared with a neighbour,
// or a tail written past its range, would overwrite one.
func TestScatterStaysInItsRanges(t *testing.T) {
	const sentinel = 0xDEADBEEF
	for _, st := range storesUnderTest(t) {
		for _, workers := range []int{2, 3, 7} {
			keys := scatterShapes(workers)["mid-block"]
			workload.Shuffle(7, keys)
			vals := tagged[uint64](len(keys), 1)[0]
			const shift, fanout = 4, 256
			want := referenceDo(keys, vals, shift, fanout)
			chunk := (len(keys) + workers - 1) / workers
			for w := range workers {
				_, cur, _ := cursors(keys, len(vals), shift, fanout, workers)
				cur = cur[w*fanout : (w+1)*fanout]
				first := slices.Clone(cur)
				lo, hi := w*chunk, min((w+1)*chunk, len(keys))
				out := Output[uint64]{Keys: alignedMake[uint32](len(keys)), Vals: alignedMake[uint64](len(keys))}
				for i := range out.Keys {
					out.Keys[i], out.Vals[i] = sentinel, sentinel
				}
				r := route[uint64]{shift: shift, mask: fanout - 1, keys: make([][]uint32, fanout), vals: make([][]uint64, fanout), store: st}
				for p := range fanout {
					r.keys[p], r.vals[p] = out.Keys, out.Vals
				}
				scatterRows(&r, newStage[uint64](fanout), keys[lo:hi], vals[lo:hi], cur)
				mine := make([]bool, len(keys))
				for p := range fanout {
					for j := first[p]; j < cur[p]; j++ {
						mine[j] = true
					}
				}
				for j := range out.Keys {
					wk, wv := uint32(sentinel), uint64(sentinel)
					if mine[j] {
						wk, wv = want.Keys[j], want.Vals[j]
					}
					if out.Keys[j] != wk || out.Vals[j] != wv {
						t.Fatalf("%s, worker %d of %d: position %d holds ⟨%#x, %#x⟩, want ⟨%#x, %#x⟩ (its own: %v)",
							st.name, w, workers, j, out.Keys[j], out.Vals[j], wk, wv, mine[j])
					}
				}
			}
		}
	}
}

// FuzzScatter: keys from the input, fan-outs 2..256, 1..4 workers and
// 4- or 8-byte values, through Do and Recursive under every block store
// forced on, against the counting-sort references.
func FuzzScatter(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, uint8(8), uint8(2), true)
	f.Add(make([]byte, 4*100), uint8(1), uint8(3), false)
	f.Fuzz(func(t *testing.T, data []byte, lgFan, workersRaw uint8, wide bool) {
		fanout := 1 << (lgFan%8 + 1)
		workers := int(workersRaw)%4 + 1
		keys := make([]uint32, 0, len(data))
		for len(data) > 0 {
			var b [4]byte
			data = data[copy(b[:], data):]
			// A short repeat count spreads one key over several blocks.
			for range b[3]%20 + 1 {
				keys = append(keys, binary.LittleEndian.Uint32(b[:])&0xFFFFFF)
			}
		}
		for _, st := range storesUnderTest(t) {
			if wide {
				fuzzScatter[uint64](t, st, keys, fanout, workers)
			} else {
				fuzzScatter[uint32](t, st, keys, fanout, workers)
			}
		}
	})
}

func fuzzScatter[V Scalar](t *testing.T, st *blockStore, keys []uint32, fanout, workers int) {
	vals := tagged[V](len(keys), 1)[0]
	what := fmt.Sprintf("%s fanout %d workers %d", st.name, fanout, workers)
	checkDo(t, what+" Do", do(keys, vals, 3, fanout, workers, forced(st)), referenceDo(keys, vals, 3, fanout))
	for _, depth := range []int{1, 2} {
		checkParts(t, what, keys, [][]V{vals}, recursive(keys, [][]V{vals}, depth, fanout, workers, forced(st)))
	}
}

// BenchmarkScatterStore prices the block stores where streamMinBytes
// sits: Recursive at depth 1 over rows keys and one float64 column (12
// bytes a row) with each store forced on, including the read-back the
// aggregation that follows pays — a streamed line is no longer cached.
func BenchmarkScatterStore(b *testing.B) {
	for _, rows := range []int{1 << 14, 1 << 16, 1 << 17, 1 << 18, 3 << 17, 1 << 19, 1 << 20, 1 << 22} {
		keys := workload.Keys(3, rows, 1<<16)
		vals := workload.Values64(4, rows, workload.Uniform12)
		for _, st := range storesUnderTest(b) {
			b.Run(fmt.Sprintf("out%dKiB/%s", rows*12>>10, st.name), func(b *testing.B) {
				sum := 0.0
				for b.Loop() {
					for _, pt := range recursive(keys, [][]float64{vals}, 1, 256, 0, forced(st)) {
						for _, v := range pt.Cols[0] {
							sum += v
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
				benchSink = sum
			})
		}
	}
}

var benchSink float64
