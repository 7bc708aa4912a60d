package partition

import "unsafe"

// Scalar is what a partitioned column may hold: a pointer-free 4- or
// 8-byte number. Pointer-free, because the streaming block store writes
// behind the collector's back (no write barrier); 4 or 8 bytes, so that a
// block of blockRows values is a whole number of cache lines.
type Scalar interface {
	~int32 | ~uint32 | ~float32 | ~int64 | ~uint64 | ~float64 | ~int | ~uint
}

const (
	// lineBytes is the cache line the blocks are written in; every
	// destination column starts on one (alignedMake).
	lineBytes = 64
	// blockRows is the rows a staged block holds: one line of keys, one
	// or two of values.
	blockRows = lineBytes / 4
)

// streamMinBytes is the output size above which a scatter writes its
// blocks with streaming stores: the 2 MiB L2. Below it the output can be
// read back from L2, which a streaming store, by evicting it, gives away.
// BenchmarkScatterStore (with the read-back) on the 2-vCPU reference VM
// puts the two stores within its noise from 0.2 to 6 MiB of output and
// streaming ahead from 12 MiB (7.6–9.3 against 8.0–12.3 ns a row; at
// 48 MiB 6.4–6.9 against 10.7–11.5).
const streamMinBytes = 2 << 20

// blockStore writes whole staged blocks to their destination.
type blockStore struct {
	name string
	// lines copies n bytes, a whole number of lines, from src to the
	// line-aligned dst.
	lines func(dst, src unsafe.Pointer, n int)
	// fence orders every store lines made before every later store.
	fence func()
}

// goStore is the block store in Go, with ordinary stores: compiled
// everywhere, the store of every scatter up to streamMinBytes, and the
// oracle the tests hold the streaming store to.
var goStore = blockStore{"go", copyLines, func() {}}

func copyLines(dst, src unsafe.Pointer, n int) {
	copy(unsafe.Slice((*byte)(dst), n), unsafe.Slice((*byte)(src), n))
}

// storeFor is the block store of a scatter that writes outBytes.
func storeFor(outBytes int) *blockStore {
	if outBytes > streamMinBytes {
		return &streamStore
	}
	return &goStore
}

func sizeOf[T Scalar]() int {
	var zero T
	return int(unsafe.Sizeof(zero))
}

// alignedMake returns n zeroed Ts starting on a line: it allocates at
// most lineBytes − sizeof(T) bytes more and slices to the first aligned
// element. It returns nil for n = 0.
func alignedMake[T Scalar](n int) []T {
	if n == 0 {
		return nil
	}
	size := sizeOf[T]()
	buf := make([]T, n+lineBytes/size-1)
	skip := int(-uintptr(unsafe.Pointer(&buf[0]))&(lineBytes-1)) / size
	return buf[skip : skip+n : skip+n]
}

// A route is where one scatter pass sends rows: partition p's keys to
// keys[p] and its values to vals[p], at the cursor the worker holds for
// p, on the digit (key >> shift) & mask. A nil keys or vals is a column
// the pass does not write. Every destination starts on a line.
type route[V Scalar] struct {
	shift uint
	mask  uint32
	keys  [][]uint32
	vals  [][]V
	store *blockStore
}

// A block is one partition's staging: a line of keys and one or two
// lines of values.
type block[V Scalar] struct {
	keys [blockRows]uint32
	vals [blockRows]V
}

// A stage is one worker's staging area: a block per partition and the
// cursors its last pass started from.
type stage[V Scalar] struct {
	blocks []block[V]
	start  []int
}

func newStage[V Scalar](fanout int) *stage[V] {
	return &stage[V]{blocks: make([]block[V], fanout), start: make([]int, fanout)}
}

// scatterRows is the scatter of every partitioning pass: it moves the
// rows of one worker's chunk — keys, with vals beside them unless vals
// is nil, as the route's are then — to the partitions their digits name,
// each to the worker's cursor for it, and advances the cursors.
//
// A row is staged in its partition's block at slot = destination index
// mod blockRows, so that a block maps onto whole destination lines. A
// block whose every slot is in the worker's range goes out through the
// route's store when its last slot fills: with streaming stores, a line
// that misses every cache is written without first being read. The
// worker's first and last block of a partition can share lines with the
// worker before or after it, so only its own slots of them are copied,
// with ordinary stores. The call ends with the store's fence.
func scatterRows[V Scalar](r *route[V], st *stage[V], keys []uint32, vals []V, cur []int) {
	copy(st.start, cur)
	for len(keys) > 0 {
		n, p, end := st.fill(r, keys, vals, cur)
		keys = keys[n:]
		if vals != nil {
			vals = vals[n:]
		}
		if end > 0 {
			r.flush(st, p, end)
		}
	}
	for p, j := range cur {
		if lo := max(st.start[p], j&^(blockRows-1)); lo < j {
			r.copyRows(&st.blocks[p], p, lo, j)
		}
	}
	r.store.fence()
}

// fill stages rows of keys (and vals, unless nil) until one fills its
// block or the rows run out. It returns the rows it staged and, if a
// block filled, that block's partition and destination end (else 0). It
// calls nothing, so that the loop keeps its operands in registers.
func (st *stage[V]) fill(r *route[V], keys []uint32, vals []V, cur []int) (n, p, end int) {
	// A pass that does not write keys stages them anyway: a store to the
	// block is cheaper than a branch around it. (shift < 32: cursors.)
	blocks, shift, mask := st.blocks[:len(cur)], r.shift&31, r.mask
	withVals := vals != nil
	if withVals {
		vals = vals[:len(keys)]
	}
	for i, k := range keys {
		p := (k >> shift) & mask
		j := cur[p]
		cur[p] = j + 1
		blk := &blocks[p]
		blk.keys[j&(blockRows-1)] = k
		if withVals {
			blk.vals[j&(blockRows-1)] = vals[i]
		}
		if j&(blockRows-1) == blockRows-1 {
			return i + 1, int(p), j + 1
		}
	}
	return len(keys), 0, 0
}

// flush writes partition p's full block, which ends at destination row
// end: whole through the store, or only the worker's own rows of it.
func (r *route[V]) flush(st *stage[V], p, end int) {
	blk, b := &st.blocks[p], end-blockRows
	if b < st.start[p] {
		r.copyRows(blk, p, st.start[p], end)
		return
	}
	if r.keys != nil {
		r.store.lines(unsafe.Pointer(&r.keys[p][b:end][0]), unsafe.Pointer(&blk.keys), len(blk.keys)*4)
	}
	if r.vals != nil {
		r.store.lines(unsafe.Pointer(&r.vals[p][b:end][0]), unsafe.Pointer(&blk.vals), len(blk.vals)*sizeOf[V]())
	}
}

// copyRows copies partition p's destination rows [lo, hi), which lie in
// one block, from the block with ordinary stores.
func (r *route[V]) copyRows(blk *block[V], p, lo, hi int) {
	s, e := lo&(blockRows-1), (hi-1)&(blockRows-1)+1
	if r.keys != nil {
		copy(r.keys[p][lo:hi], blk.keys[s:e])
	}
	if r.vals != nil {
		copy(r.vals[p][lo:hi], blk.vals[s:e])
	}
}
