// Package partition implements the parallel radix partitioning routine
// of Algorithm 4, line 1 (PARALLELPARTITION): ⟨key, value⟩ pairs are
// scattered into F = fanout output partitions by a digit of the key
// (identity hashing, as in the aggregation operator). Larger fan-outs
// are realized recursively with several passes, matching the paper's
// F = f^d for f = 256 and d = 0, 1, 2, …
//
// Do routes on the digit its caller names; the ablations and the
// benchmark time it. Recursive, the pass of every GROUP BY, routes on
// the key's high bits — the highest lg f bits in which the keys it is
// given differ — so that a partition is a key range and the ranges
// ascend with the partition index, and carries any number of value
// columns beside the keys. An operator that aggregates partition by
// partition and emits each one's groups in key order has then produced
// the whole result in key order, with no sort of all groups on one core
// afterwards (at 2^20 groups that sort cost more than the
// aggregation). A low digit spreads any key set
// evenly but interleaves the partitions' key ranges; a high digit can
// fail to spread (a far outlier, two clusters), and Recursive repairs
// that by splitting an overfull partition again on its own bits.
//
// Parallelization follows the standard two-phase scheme: every worker
// computes a histogram of its input chunk, a prefix sum over all
// (worker, partition) counts yields private write cursors, and the
// scatter phase then proceeds without synchronization. The logical
// output partition p is the concatenation of all workers' segments
// for p, which is deterministic for a fixed worker count — and, when
// the aggregates are reproducible types, the final query result is
// bit-identical for ANY worker count.
//
// Do and every scatter of Recursive run one driver, scatterRows, the
// tuned routine the paper's partitioning relies on (Schuhknecht et al.,
// "On the Surprising Difficulty of Simple Things: the Case of Radix
// Partitioning", PVLDB 2015): a worker stages each row in a block of 16
// per partition (a 64-byte line of keys, one or two of values) and
// writes a block out whole once it fills. Above streamMinBytes of
// output it writes with non-temporal stores, so that the destination
// lines, which miss every cache, are not read before they are
// overwritten: that read-for-ownership is what a plain scatter whose
// output outgrows the caches waits on. Every destination column
// therefore starts on a cache line, and a column holds a Scalar:
// streaming stores bypass the collector's write barriers.
package partition

import (
	"math/bits"
	"runtime"
	"sync"
)

// Output holds partitioned key/value columns: partition p occupies
// Keys[Off[p]:Off[p+1]] and Vals[Off[p]:Off[p+1]].
type Output[V any] struct {
	Keys []uint32
	Vals []V
	Off  []int
}

// NumPartitions returns the partition count.
func (o *Output[V]) NumPartitions() int { return len(o.Off) - 1 }

// Partition returns the key and value slices of partition p.
func (o *Output[V]) Partition(p int) ([]uint32, []V) {
	return o.Keys[o.Off[p]:o.Off[p+1]], o.Vals[o.Off[p]:o.Off[p+1]]
}

// EachChunk cuts [0, n) into workers contiguous chunks of ⌈n/workers⌉
// and runs fn on every non-empty one in parallel, chunk w on [lo, hi),
// returning when all are done: the chunk loop of every scatter and
// every worker fan-out over rows. workers must be at least one.
func EachChunk(n, workers int, fn func(w, lo, hi int)) {
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w*chunk < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, w*chunk, min((w+1)*chunk, n))
		}()
	}
	wg.Wait()
}

// keyRange returns the smallest and the largest key (0, 0 of none); an
// input worth the goroutines is scanned by workers of them.
func keyRange(keys []uint32, workers int) (lo, hi uint32) {
	if len(keys) == 0 {
		return 0, 0
	}
	lo, hi = keys[0], keys[0]
	if workers > 1 && len(keys) >= 1<<16 {
		var mu sync.Mutex
		EachChunk(len(keys), workers, func(_, a, b int) {
			l, h := keyRange(keys[a:b], 1)
			mu.Lock()
			lo, hi = min(lo, l), max(hi, h)
			mu.Unlock()
		})
		return lo, hi
	}
	// Four chains: one alone runs at the latency of its compare-and-move
	// (1.1 ns a key on the reference VM against 0.7 for four).
	lo1, hi1, lo2, hi2, lo3, hi3 := lo, hi, lo, hi, lo, hi
	for ; len(keys) >= 4; keys = keys[4:] {
		lo, hi = min(lo, keys[0]), max(hi, keys[0])
		lo1, hi1 = min(lo1, keys[1]), max(hi1, keys[1])
		lo2, hi2 = min(lo2, keys[2]), max(hi2, keys[2])
		lo3, hi3 = min(lo3, keys[3]), max(hi3, keys[3])
	}
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	return min(lo, lo1, lo2, lo3), max(hi, hi1, hi2, hi3)
}

// cursors is the first two phases of Do: it validates the arguments,
// histograms the digit (key >> shift) & (fanout−1) over one contiguous
// input chunk per worker and prefix-sums the counts into the partition
// offsets and every worker's private write cursors, cur[w·fanout + p].
// It returns the worker count it settled on.
func cursors(keys []uint32, nvals int, shift uint, fanout, workers int) (off, cur []int, w int) {
	if len(keys) != nvals {
		panic("partition: keys and values must have equal length")
	}
	if fanout <= 0 || fanout&(fanout-1) != 0 || fanout > 65536 {
		panic("partition: fanout must be a power of two in [1, 65536]")
	}
	if shift > 31 {
		panic("partition: the digit must start inside the key")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(keys) {
		workers = 1
	}
	mask := uint32(fanout - 1)
	cur = make([]int, workers*fanout)
	EachChunk(len(keys), workers, func(w, lo, hi int) {
		h := cur[w*fanout : (w+1)*fanout]
		for _, k := range keys[lo:hi] {
			h[(k>>shift)&mask]++
		}
	})
	off = make([]int, fanout+1)
	pos := 0
	for p := 0; p < fanout; p++ {
		off[p] = pos
		for w := 0; w < workers; w++ {
			pos, cur[w*fanout+p] = pos+cur[w*fanout+p], pos
		}
	}
	off[fanout] = pos
	return off, cur, workers
}

// Do scatters the input into fanout partitions on the digit
// (key >> shift) & (fanout−1), using the given number of parallel
// workers (0 means GOMAXPROCS). fanout must be a power of two ≤ 65536
// and shift below 32.
func Do[V Scalar](keys []uint32, vals []V, shift uint, fanout, workers int) Output[V] {
	return do(keys, vals, shift, fanout, workers, storeFor)
}

// do is Do with the block store picked by store from the output bytes.
func do[V Scalar](keys []uint32, vals []V, shift uint, fanout, workers int, store func(outBytes int) *blockStore) Output[V] {
	off, cur, workers := cursors(keys, len(vals), shift, fanout, workers)
	out := Output[V]{Keys: alignedMake[uint32](len(keys)), Vals: alignedMake[V](len(keys)), Off: off}
	r := route[V]{shift: shift, mask: uint32(fanout - 1), keys: make([][]uint32, fanout), vals: make([][]V, fanout),
		store: store(len(keys) * (4 + sizeOf[V]()))}
	for p := range r.keys {
		r.keys[p], r.vals[p] = out.Keys, out.Vals
	}
	EachChunk(len(keys), workers, func(w, lo, hi int) {
		scatterRows(&r, newStage[V](fanout), keys[lo:hi], vals[lo:hi], cur[w*fanout:(w+1)*fanout])
	})
	return out
}

// Part is one partition of Recursive: a key column and its value
// columns, of their own, so that whoever consumes the partitions one by
// one can drop each when done with it and have its memory back before
// the last is reached. Cols[c] is nil where the input's column c was.
// Every key lies in [Lo, Hi]: the keys' own range where Recursive has
// it, else the key range its scatter routed into the partition.
type Part[V Scalar] struct {
	Keys   []uint32
	Cols   [][]V
	Lo, Hi uint32
}

// Bound returns an upper bound on the part's distinct keys: its row
// count or the width of [Lo, Hi], whichever is less — tight for the
// dense domain-encoded keys common in column stores, and never an
// undercount, so an aggregation table sized from it cannot rehash.
func (pt Part[V]) Bound() int {
	return int(min(uint64(pt.Hi-pt.Lo)+1, uint64(len(pt.Keys))))
}

// Recursive is the paper's recursive PARTITIONING with F = f^d, on the
// key's high bits: each of its depth passes splits every partition of
// the pass before (the whole input, for the first) on the highest
// lg fanout bits in which that partition's keys differ. The partitions
// it returns are therefore disjoint key ranges that ascend with the
// index, none of them empty, and for dense keys the d-th pass routes on
// the d-th digit from the top of the key range. Every non-nil column of
// cols moves with the keys (none, for a COUNT); a nil one is not
// carried. Rows whose keys cannot be told apart any further are not
// copied again: depth 0 and a single key return the input itself.
//
// A high digit does not spread every key set: one 0xFFFFFFFF NULL
// sentinel beside 2^16 dense ids leaves all but one row in partition 0.
// A partition that comes out of a scatter holding more than half of the
// scattered rows is therefore split again on its own bits (which leaves
// it whole if it holds a single key). Every such split consumes
// lg fanout more key bits, so the key width bounds them.
func Recursive[V Scalar](keys []uint32, cols [][]V, depth, fanout, workers int) []Part[V] {
	return recursive(keys, cols, depth, fanout, workers, storeFor)
}

// recursive is Recursive with the block store of every scatter picked by
// store from its output bytes.
func recursive[V Scalar](keys []uint32, cols [][]V, depth, fanout, workers int, store func(outBytes int) *blockStore) []Part[V] {
	for _, col := range cols {
		if col != nil && len(col) != len(keys) {
			panic("partition: keys and values must have equal length")
		}
	}
	if len(keys) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	whole := Part[V]{Keys: keys, Cols: cols}
	if depth == 0 {
		whole.Lo, whole.Hi = keyRange(keys, workers)
		return []Part[V]{whole}
	}
	s := newSplitter[V](fanout, workers, store)
	parts := []Part[V]{whole}
	for d := 0; d < depth; d++ {
		var next []Part[V]
		for _, pt := range parts {
			pt.Lo, pt.Hi = keyRange(pt.Keys, workers)
			next = s.split(next, pt, nil)
		}
		parts = next
	}
	return parts
}

// Split is Recursive's first pass from its depth-0 part: given
// whole = Recursive(keys, cols, 0, …)[0], whose Lo and Hi are its keys'
// own range, it returns Recursive(keys, cols, 1, fanout, workers)
// without scanning the keys for that range again. A non-nil arena
// receives the pass's partitions, which then alias it until its next
// Split; the re-split of an overfull partition still gets columns of
// its own.
func Split[V Scalar](whole Part[V], fanout, workers int, arena *Arena[V]) []Part[V] {
	if len(whole.Keys) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return newSplitter[V](fanout, workers, storeFor).split(nil, whole, arena)
}

// An Arena is the destination memory of Split, kept by a caller that
// partitions one input after another: a line-aligned slab for the keys
// and one per carried column, each grown to the largest scatter yet and
// never zeroed again, since a scatter writes every row of the
// partitions it carves from them.
type Arena[V Scalar] struct {
	keys []uint32
	cols [][]V
}

// slab returns *buf with at least n elements, line-aligned, made anew
// only when the last one is too small.
func slab[T Scalar](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = alignedMake[T](n)
	}
	return (*buf)[:n]
}

// carve returns partition p's column, of off[p+1]−off[p] elements, from
// a slab of slabLen(off, T): its start is off[p] + p·(L−1) rounded up to
// a line of L elements, which lies past the end of partition p−1's.
func carve[T Scalar](slab []T, off []int, p int) []T {
	line := lineBytes / sizeOf[T]()
	at := (off[p] + p*(line-1) + line - 1) &^ (line - 1)
	n := off[p+1] - off[p]
	return slab[at : at+n : at+n]
}

// slabLen is the elements a slab needs to carve every partition of off.
func slabLen[T Scalar](off []int) int {
	return off[len(off)-1] + len(off)*(lineBytes/sizeOf[T]())
}

// A splitter is what the scatters of one Recursive call share: the
// fan-out, the workers, the pick of the block store and every worker's
// stage, made by its first scatter.
type splitter[V Scalar] struct {
	fanout, workers int
	store           func(outBytes int) *blockStore
	stages          []*stage[V]
}

func newSplitter[V Scalar](fanout, workers int, store func(outBytes int) *blockStore) *splitter[V] {
	return &splitter[V]{fanout: fanout, workers: workers, store: store, stages: make([]*stage[V], workers)}
}

// split appends to out the non-empty partitions of pt on the highest
// lg fanout bits in which its keys differ: pt itself if none do. pt.Lo
// and pt.Hi must be its keys' own range. A non-nil arena receives the
// scatter's partitions.
func (s *splitter[V]) split(out []Part[V], pt Part[V], arena *Arena[V]) []Part[V] {
	if pt.Lo == pt.Hi || s.fanout == 1 {
		return append(out, pt)
	}
	lg := bits.TrailingZeros(uint(s.fanout))
	shift := max(bits.Len32(pt.Lo^pt.Hi)-lg, 0)
	// Partition p's keys agree with pt.Lo above bit shift+lg and read p
	// in the lg bits below it: a range of width 2^shift.
	base := uint64(pt.Lo) >> (shift + lg) << (shift + lg)
	for p, sub := range s.scatter(pt, uint(shift), arena) {
		switch {
		case len(sub.Keys) == 0:
		case 2*len(sub.Keys) > len(pt.Keys):
			sub.Lo, sub.Hi = keyRange(sub.Keys, s.workers)
			out = s.split(out, sub, nil)
		default:
			lo := base + uint64(p)<<shift
			sub.Lo, sub.Hi = max(pt.Lo, uint32(lo)), min(pt.Hi, uint32(lo+1<<shift-1))
			out = append(out, sub)
		}
	}
	return out
}

// scatter is Do into columns of their own per partition: carved from
// the arena's slabs, or else allocated (and zeroed) by the workers side
// by side. Each worker moves its chunk's keys together with the first
// carried column — the pass the one-column operator runs — and every
// further column in a pass of its own from the same starting cursors.
func (s *splitter[V]) scatter(pt Part[V], shift uint, arena *Arena[V]) []Part[V] {
	fanout := s.fanout
	off, cur, workers := cursors(pt.Keys, len(pt.Keys), shift, fanout, s.workers)
	var carried []int
	for c, col := range pt.Cols {
		if col != nil {
			carried = append(carried, c)
		}
	}
	keys := func(p int) []uint32 { return alignedMake[uint32](off[p+1] - off[p]) }
	col := func(_, p int) []V { return alignedMake[V](off[p+1] - off[p]) }
	if arena != nil {
		ks := slab(&arena.keys, slabLen[uint32](off))
		for len(arena.cols) < len(carried) {
			arena.cols = append(arena.cols, nil)
		}
		cs := make([][]V, len(carried))
		for i := range cs {
			cs[i] = slab(&arena.cols[i], slabLen[V](off))
		}
		keys = func(p int) []uint32 { return carve(ks, off, p) }
		col = func(i, p int) []V { return carve(cs[i], off, p) }
	}
	parts := make([]Part[V], fanout)
	EachChunk(fanout, workers, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			parts[p] = Part[V]{Keys: keys(p), Cols: make([][]V, len(pt.Cols))}
			for i, c := range carried {
				parts[p].Cols[c] = col(i, p)
			}
			for w := 0; w < workers; w++ {
				cur[w*fanout+p] -= off[p]
			}
		}
	})
	// One route per pass: the keys with the first carried column (or
	// alone), then every further column by itself.
	store := s.store(len(pt.Keys) * (4 + len(carried)*sizeOf[V]()))
	routes := make([]route[V], max(len(carried), 1))
	for i := range routes {
		r := &routes[i]
		r.shift, r.mask, r.store = shift, uint32(fanout-1), store
		if i == 0 {
			r.keys = make([][]uint32, fanout)
			for p := range r.keys {
				r.keys[p] = parts[p].Keys
			}
		}
		if i < len(carried) {
			r.vals = make([][]V, fanout)
			for p := range r.vals {
				r.vals[p] = parts[p].Cols[carried[i]]
			}
		}
	}
	EachChunk(len(pt.Keys), workers, func(w, lo, hi int) {
		if s.stages[w] == nil {
			s.stages[w] = newStage[V](fanout)
		}
		st, cur := s.stages[w], cur[w*fanout:(w+1)*fanout]
		for i := range routes {
			var vals []V
			if i < len(carried) {
				vals = pt.Cols[carried[i]][lo:hi]
			}
			if i > 0 {
				copy(cur, st.start)
			}
			scatterRows(&routes[i], st, pt.Keys[lo:hi], vals, cur)
		}
	})
	return parts
}

// swwcbSize is the per-partition buffer size (in elements) of
// DoBuffered: 64 key/value pairs fill several cache lines.
const swwcbSize = 64

// DoBuffered is Do with software write-combining buffers flushed with
// ordinary stores: each worker stages elements per partition and copies
// them out in bursts of swwcbSize. That is half of the tuned routine
// (Schuhknecht et al.); without the streaming stores every flushed line
// is still read for ownership first, and on the reference VM the buffers
// bought little over a plain scatter. No operator runs it: it is the
// ablation that BenchmarkOperatorVariants and the benchmark's
// partition.dobuffered_ns_per_row time against Do. Same output layout and
// determinism contract as Do for a fixed worker count.
func DoBuffered[V any](keys []uint32, vals []V, shift uint, fanout, workers int) Output[V] {
	off, cur, workers := cursors(keys, len(vals), shift, fanout, workers)
	out := Output[V]{Keys: make([]uint32, len(keys)), Vals: make([]V, len(keys)), Off: off}
	mask := uint32(fanout - 1)
	EachChunk(len(keys), workers, func(w, lo, hi int) {
		cur := cur[w*fanout : (w+1)*fanout]
		bufK := make([]uint32, fanout*swwcbSize)
		bufV := make([]V, fanout*swwcbSize)
		fill := make([]int, fanout)
		flush := func(p uint32) {
			base := int(p) * swwcbSize
			j := cur[p]
			copy(out.Keys[j:], bufK[base:base+fill[p]])
			copy(out.Vals[j:], bufV[base:base+fill[p]])
			cur[p] = j + fill[p]
			fill[p] = 0
		}
		for i := lo; i < hi; i++ {
			k := keys[i]
			p := (k >> shift) & mask
			base := int(p)*swwcbSize + fill[p]
			bufK[base] = k
			bufV[base] = vals[i]
			fill[p]++
			if fill[p] == swwcbSize {
				flush(p)
			}
		}
		for p := 0; p < fanout; p++ {
			if fill[p] > 0 {
				flush(uint32(p))
			}
		}
	})
	return out
}
