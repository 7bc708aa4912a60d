// Package partition implements the parallel radix partitioning routine
// of Algorithm 4, line 1 (PARALLELPARTITION): ⟨key, value⟩ pairs are
// scattered into F = fanout output partitions by a byte of the key's
// hash (identity hashing, as in the aggregation operator). Larger
// fan-outs are realized recursively with several passes, matching the
// paper's F = f^d for f = 256 and d = 0, 1, 2, …
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

// DistinctBound returns an upper bound on the number of distinct keys
// in partition p. stride is the guaranteed minimum gap between two
// distinct keys of the same partition: when Do routed on the low key
// byte (shift == 0), keys in one partition are congruent modulo the
// fan-out, so stride is the fan-out; pass 1 when no such gap is known.
// The bound is min(len(partition), (maxKey−minKey)/stride + 1) — tight
// for the dense domain-encoded key ranges common in column stores, and
// never below the true distinct count, so an aggregation table sized
// from it cannot rehash mid-partition.
func (o *Output[V]) DistinctBound(p int, stride uint32) int {
	pk, _ := o.Partition(p)
	if len(pk) == 0 {
		return 0
	}
	if stride == 0 {
		stride = 1
	}
	minK, maxK := pk[0], pk[0]
	for _, k := range pk[1:] {
		if k < minK {
			minK = k
		}
		if k > maxK {
			maxK = k
		}
	}
	if b := int((maxK-minK)/stride) + 1; b < len(pk) {
		return b
	}
	return len(pk)
}

// Do scatters the input into fanout partitions on the byte
// (key >> shift) & (fanout−1), using the given number of parallel
// workers (0 means GOMAXPROCS). fanout must be a power of two ≤ 65536.
func Do[V any](keys []uint32, vals []V, shift uint, fanout, workers int) Output[V] {
	if len(keys) != len(vals) {
		panic("partition: keys and values must have equal length")
	}
	if fanout <= 0 || fanout&(fanout-1) != 0 || fanout > 65536 {
		panic("partition: fanout must be a power of two in [1, 65536]")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(keys)
	if workers > n {
		workers = 1
	}
	mask := uint32(fanout - 1)

	out := Output[V]{
		Keys: make([]uint32, n),
		Vals: make([]V, n),
		Off:  make([]int, fanout+1),
	}
	if n == 0 {
		return out
	}

	// Phase 1: per-worker histograms.
	hists := make([][]int, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			hists[w] = make([]int, fanout)
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			h := make([]int, fanout)
			for _, k := range keys[lo:hi] {
				h[(k>>shift)&mask]++
			}
			hists[w] = h
		}(w, lo, hi)
	}
	wg.Wait()

	// Phase 2: global prefix sums → per-(worker, partition) cursors.
	cursors := make([][]int, workers)
	for w := range cursors {
		cursors[w] = make([]int, fanout)
	}
	pos := 0
	for p := 0; p < fanout; p++ {
		out.Off[p] = pos
		for w := 0; w < workers; w++ {
			cursors[w][p] = pos
			pos += hists[w][p]
		}
	}
	out.Off[fanout] = pos

	// Phase 3: parallel scatter.
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			cur := cursors[w]
			for i := lo; i < hi; i++ {
				k := keys[i]
				p := (k >> shift) & mask
				j := cur[p]
				cur[p] = j + 1
				out.Keys[j] = k
				out.Vals[j] = vals[i]
			}
		}(w, lo, hi)
	}
	wg.Wait()
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

// Recursive applies depth passes of fan-out `fanout` partitioning
// (pass d uses byte d of the key), yielding fanout^depth partitions —
// the paper's recursive PARTITIONING with F = f^d. depth 0 returns the
// input as a single partition without copying.
func Recursive[V any](keys []uint32, vals []V, depth, fanout, workers int) Output[V] {
	if depth == 0 {
		return Output[V]{Keys: keys, Vals: vals, Off: []int{0, len(keys)}}
	}
	radixBits := uint(0)
	for f := fanout; f > 1; f >>= 1 {
		radixBits++
	}
	cur := Do(keys, vals, 0, fanout, workers)
	for d := 1; d < depth; d++ {
		shift := uint(d) * radixBits
		next := Output[V]{
			Keys: make([]uint32, len(cur.Keys)),
			Vals: make([]V, len(cur.Vals)),
			Off:  make([]int, 0, (len(cur.Off)-1)*fanout+1),
		}
		nextPos := 0
		next.Off = append(next.Off, 0)
		for p := 0; p < cur.NumPartitions(); p++ {
			pk, pv := cur.Partition(p)
			sub := Do(pk, pv, shift, fanout, workers)
			copy(next.Keys[nextPos:], sub.Keys)
			copy(next.Vals[nextPos:], sub.Vals)
			for sp := 1; sp <= sub.NumPartitions(); sp++ {
				next.Off = append(next.Off, nextPos+sub.Off[sp])
			}
			nextPos += len(pk)
		}
		cur = next
	}
	return cur
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
	if len(keys) != len(vals) {
		panic("partition: keys and values must have equal length")
	}
	if fanout <= 0 || fanout&(fanout-1) != 0 || fanout > 65536 {
		panic("partition: fanout must be a power of two in [1, 65536]")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(keys)
	if workers > n {
		workers = 1
	}
	mask := uint32(fanout - 1)

	out := Output[V]{
		Keys: make([]uint32, n),
		Vals: make([]V, n),
		Off:  make([]int, fanout+1),
	}
	if n == 0 {
		return out
	}

	hists := make([][]int, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			hists[w] = make([]int, fanout)
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			h := make([]int, fanout)
			for _, k := range keys[lo:hi] {
				h[(k>>shift)&mask]++
			}
			hists[w] = h
		}(w, lo, hi)
	}
	wg.Wait()

	cursors := make([][]int, workers)
	for w := range cursors {
		cursors[w] = make([]int, fanout)
	}
	pos := 0
	for p := 0; p < fanout; p++ {
		out.Off[p] = pos
		for w := 0; w < workers; w++ {
			cursors[w][p] = pos
			pos += hists[w][p]
		}
	}
	out.Off[fanout] = pos

	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			cur := cursors[w]
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
		}(w, lo, hi)
	}
	wg.Wait()
	return out
}
