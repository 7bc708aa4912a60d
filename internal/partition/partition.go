// Package partition implements the parallel radix partitioning routine
// of Algorithm 4, line 1 (PARALLELPARTITION): ⟨key, value⟩ pairs are
// scattered into F = fanout output partitions by a digit of the key
// (identity hashing, as in the aggregation operator). Larger fan-outs
// are realized recursively with several passes, matching the paper's
// F = f^d for f = 256 and d = 0, 1, 2, …
//
// Do routes on the digit its caller names. Recursive, the aggregation
// operator's pass, routes on the key's high bits — the highest lg f
// bits in which the keys it is given differ — so that a partition is a
// key range and the ranges ascend with the partition index. An operator
// that aggregates partition by partition and emits each one's groups in
// key order has then produced the whole result in key order, with no
// sort of all groups on one core afterwards (at 2^20 groups that sort
// cost more than the aggregation). A low digit spreads any key set
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

// DistinctBound is KeyBound of partition p's keys.
func (o *Output[V]) DistinctBound(p int, stride uint32) int {
	pk, _ := o.Partition(p)
	return KeyBound(pk, stride)
}

// KeyBound returns an upper bound on the number of distinct keys in
// keys. stride is the guaranteed minimum gap between two distinct keys:
// when Do routed on the low key byte (shift == 0), the keys of one
// partition are congruent modulo the fan-out, so stride is the fan-out;
// pass 1 when no such gap is known (Recursive's key ranges). The bound
// is min(len(keys), (maxKey−minKey)/stride + 1) — tight for the dense
// domain-encoded key ranges common in column stores, and never below
// the true distinct count, so an aggregation table sized from it cannot
// rehash mid-partition.
func KeyBound(keys []uint32, stride uint32) int {
	lo, hi := keyRange(keys, 1)
	if b := uint64(hi-lo)/uint64(max(stride, 1)) + 1; b < uint64(len(keys)) {
		return int(b)
	}
	return len(keys)
}

// eachChunk cuts [0, n) into workers contiguous chunks and runs fn on
// every non-empty one in parallel, returning when all are done.
func eachChunk(n, workers int, fn func(w, lo, hi int)) {
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
		eachChunk(len(keys), workers, func(_, a, b int) {
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(keys) {
		workers = 1
	}
	mask := uint32(fanout - 1)
	cur = make([]int, workers*fanout)
	eachChunk(len(keys), workers, func(w, lo, hi int) {
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
// workers (0 means GOMAXPROCS). fanout must be a power of two ≤ 65536.
func Do[V any](keys []uint32, vals []V, shift uint, fanout, workers int) Output[V] {
	off, cur, workers := cursors(keys, len(vals), shift, fanout, workers)
	out := Output[V]{Keys: make([]uint32, len(keys)), Vals: make([]V, len(keys)), Off: off}
	mask := uint32(fanout - 1)
	eachChunk(len(keys), workers, func(w, lo, hi int) {
		cur := cur[w*fanout : (w+1)*fanout]
		for i := lo; i < hi; i++ {
			k := keys[i]
			p := (k >> shift) & mask
			j := cur[p]
			cur[p] = j + 1
			out.Keys[j] = k
			out.Vals[j] = vals[i]
		}
	})
	return out
}

// Scatter places vals as Do(keys, vals, shift, len(off)−1, w) does for
// every worker count w, given only the offsets of such a call over the
// same keys. Do is stable — worker chunks are input ranges and a
// partition is their segments in worker order, so it holds its rows in
// input order — hence one sequential pass with the offsets as cursors
// reproduces the placement. It carries a further value column beside an
// existing partitioning without a histogram or another copy of the keys.
func Scatter[V any](keys []uint32, off []int, vals []V, shift uint) []V {
	if len(keys) != len(vals) {
		panic("partition: keys and values must have equal length")
	}
	mask := uint32(len(off) - 2)
	cur := append([]int(nil), off[:len(off)-1]...)
	out := make([]V, len(vals))
	for i, k := range keys {
		p := (k >> shift) & mask
		out[cur[p]] = vals[i]
		cur[p]++
	}
	return out
}

// Part is one partition of Recursive: parallel key and value columns
// of their own, so that whoever consumes the partitions one by one can
// drop each when done with it and have its memory back before the last
// is reached.
type Part[V any] struct {
	Keys []uint32
	Vals []V
}

// Recursive is the paper's recursive PARTITIONING with F = f^d, on the
// key's high bits: each of its depth passes splits every partition of
// the pass before (the whole input, for the first) on the highest
// lg fanout bits in which that partition's keys differ. The partitions
// it returns are therefore disjoint key ranges that ascend with the
// index, none of them empty, and for dense keys the d-th pass routes on
// the d-th digit from the top of the key range. Rows whose keys cannot
// be told apart any further are not copied again: depth 0 and a single
// key return the input itself.
//
// A high digit does not spread every key set: one 0xFFFFFFFF NULL
// sentinel beside 2^16 dense ids leaves all but one row in partition 0.
// A partition that comes out of a scatter holding more than half of the
// scattered rows is therefore split again on its own bits (which leaves
// it whole if it holds a single key). Every such split consumes
// lg fanout more key bits, so the key width bounds them.
func Recursive[V any](keys []uint32, vals []V, depth, fanout, workers int) []Part[V] {
	if len(keys) != len(vals) {
		panic("partition: keys and values must have equal length")
	}
	parts := []Part[V]{{keys, vals}}
	for d := 0; d < depth; d++ {
		var next []Part[V]
		for _, pt := range parts {
			next = split(next, pt, fanout, workers)
		}
		parts = next
	}
	return parts
}

// split appends to out the non-empty partitions of pt on the highest
// lg fanout bits in which its keys differ: pt itself if none do.
func split[V any](out []Part[V], pt Part[V], fanout, workers int) []Part[V] {
	lo, hi := keyRange(pt.Keys, workers)
	if lo == hi || fanout == 1 {
		if len(pt.Keys) > 0 {
			out = append(out, pt)
		}
		return out
	}
	shift := max(bits.Len32(lo^hi)-bits.TrailingZeros(uint(fanout)), 0)
	for _, sub := range scatter(pt, uint(shift), fanout, workers) {
		switch {
		case len(sub.Keys) == 0:
		case 2*len(sub.Keys) > len(pt.Keys):
			out = split(out, sub, fanout, workers)
		default:
			out = append(out, sub)
		}
	}
	return out
}

// scatter is Do into one pair of columns per partition, allocated (and
// zeroed) by the workers side by side.
func scatter[V any](pt Part[V], shift uint, fanout, workers int) []Part[V] {
	off, cur, workers := cursors(pt.Keys, len(pt.Vals), shift, fanout, workers)
	parts := make([]Part[V], fanout)
	eachChunk(fanout, workers, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			n := off[p+1] - off[p]
			parts[p] = Part[V]{make([]uint32, n), make([]V, n)}
			for w := 0; w < workers; w++ {
				cur[w*fanout+p] -= off[p]
			}
		}
	})
	mask := uint32(fanout - 1)
	eachChunk(len(pt.Keys), workers, func(w, lo, hi int) {
		cur := cur[w*fanout : (w+1)*fanout]
		for i := lo; i < hi; i++ {
			k := pt.Keys[i]
			p := (k >> shift) & mask
			j := cur[p]
			cur[p] = j + 1
			parts[p].Keys[j] = k
			parts[p].Vals[j] = pt.Vals[i]
		}
	})
	return parts
}

// swwcbSize is the per-partition software write-combining buffer size
// (in elements) of DoBuffered. 64 key/value pairs fill several cache
// lines, the sweet spot reported by Schuhknecht et al. ("On the
// Surprising Difficulty of Simple Things: the Case of Radix
// Partitioning"), which the paper cites for its tuned routine.
const swwcbSize = 64

// DoBuffered is Do with software-managed write-combining buffers: each
// worker stages elements per partition in a small local buffer and
// writes them out in bursts, converting the random scatter into mostly
// sequential memory traffic. Same output layout and determinism
// contract as Do for a fixed worker count. Provided as the tuned
// variant the paper's partitioning relies on; BenchmarkAblations
// compares the two.
func DoBuffered[V any](keys []uint32, vals []V, shift uint, fanout, workers int) Output[V] {
	off, cur, workers := cursors(keys, len(vals), shift, fanout, workers)
	out := Output[V]{Keys: make([]uint32, len(keys)), Vals: make([]V, len(keys)), Off: off}
	mask := uint32(fanout - 1)
	eachChunk(len(keys), workers, func(w, lo, hi int) {
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
