package agg

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/hashagg"
	"repro/internal/partition"
)

// Entry is one group of the aggregation result.
type Entry[A any] struct {
	Key uint32
	Agg A
}

// Options configures PartitionAndAggregate.
type Options struct {
	// Depth is the number of partitioning passes d; the effective
	// fan-out is DefaultFanout^Depth. Depth 0 aggregates directly.
	Depth int
	// Workers is the goroutine count (default GOMAXPROCS).
	Workers int
	// Hash selects the table hash function (default Identity).
	Hash hashagg.Hash
	// GroupHint pre-sizes the Depth 0 tables (total expected groups).
	// A partition's table is sized from the partition's own keys.
	GroupHint int
}

func (o Options) withDefaults(n int) Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers > n && n > 0 {
		o.Workers = 1
	}
	if o.GroupHint <= 0 {
		o.GroupHint = 64
	}
	return o
}

// Aggregate is Algorithm 4: the input is radix-partitioned into
// ascending key ranges (partition.Recursive: the high bits in which the
// keys differ, DefaultFanout^Depth ways), every partition is aggregated
// into a private hash table (AggregateParts), and per-thread results
// are put together without synchronization (partitions are disjoint in
// key space).
//
// A group leaves its table through finish and nowhere else: a worker
// drains each partition's table in key order into that partition's run
// of results, and the runs, concatenated in partition order, are the
// result — sorted by key at every Depth (0 drains the one merged table),
// without a payload having been copied or the groups sorted as a whole.
// finish may read and flush the payload but must not keep the pointer:
// the slot is recycled for the next partition.
//
// With reproducible payloads (core.Sum64, core.Buffered64, …) the
// result is bit-identical for every permutation of the input, every
// Depth, and every worker count. With float payloads it is not — that
// contrast is the paper's motivation.
func Aggregate[V partition.Scalar, A any, PA interface {
	*A
	hashagg.Adder[V]
	hashagg.Merger[A]
}, R any](keys []uint32, vals []V, newA func() A, opt Options, finish func(key uint32, a *A) R) []R {
	return operate(keys, vals, opt,
		func(hint int) *hashagg.Table[A] { return hashagg.New[A](hint, opt.Hash, newA) },
		func(t *hashagg.Table[A], pt partition.Part[V]) { hashagg.Aggregate[V, A, PA](t, pt.Keys, pt.Cols[0]) },
		hashagg.MergeTables[A, PA],
		func(t *hashagg.Table[A]) []R { return drain(t, finish) })
}

// operate is Algorithm 4 over any table; drain finishes a table's
// groups in key order. Depth 0 makes one table per worker from
// GroupHint, folds each worker's chunk of the rows (partition.EachChunk;
// a part spanning the whole key space) into its table and merges the
// tables into the first in worker order. Deeper, it partitions the rows
// and runs AggregateParts.
func operate[V partition.Scalar, T interface {
	Cap() int
	Clear()
}, R any](keys []uint32, vals []V, opt Options, newTable func(hint int) T, fold func(t T, pt partition.Part[V]), merge func(dst, src T), drain func(t T) []R) []R {
	if len(keys) != len(vals) {
		panic("agg: keys and values must have equal length")
	}
	opt = opt.withDefaults(len(keys))
	if opt.Depth > 0 {
		parts := partition.Recursive(keys, [][]V{vals}, opt.Depth, DefaultFanout, opt.Workers)
		runs := make([][]R, len(parts))
		AggregateParts(parts, opt.Workers, newTable, fold, func(p int, t T) {
			runs[p] = drain(t)
			parts[p] = partition.Part[V]{} // aggregated rows are garbage while the rest still run
		})
		return slices.Concat(runs...)
	}
	n, w := len(keys), opt.Workers
	if n < 2*w {
		w = 1
	}
	tables := make([]T, w)
	for i := range tables {
		tables[i] = newTable(opt.GroupHint)
	}
	partition.EachChunk(n, w, func(i, lo, hi int) {
		fold(tables[i], partition.Part[V]{Keys: keys[lo:hi], Cols: [][]V{vals[lo:hi]}, Hi: math.MaxUint32})
	})
	for _, t := range tables[1:] {
		merge(tables[0], t)
	}
	return drain(tables[0])
}

// AggregateParts is the partition loop of every GROUP BY: workers
// goroutines share parts — rows already partitioned into key ranges —
// through EachPart, and each folds a part (its rows and key range) into
// its table with fold, then hands the table to drain with the part's
// index. A worker keeps one table for every part it aggregates: made by
// newTable for the part's Bound, so it cannot rehash mid-part however
// many groups the whole input has, remade only for a part that bound
// outgrows, and otherwise cleared, not reallocated — payloads
// implementing hashagg.Resettable, the buffered accumulators in
// particular, keep their buffers, as in the paper's implementation.
// drain may read and flush the payloads but must not keep the table.
// One worker — also what a count below one runs — visits the parts in
// order.
func AggregateParts[V partition.Scalar, T interface {
	Cap() int
	Clear()
}](parts []partition.Part[V], workers int, newTable func(bound int) T, fold func(t T, pt partition.Part[V]), drain func(p int, t T)) {
	EachPart(len(parts), workers, func() func(p int) {
		var t T
		made := false
		return func(p int) {
			pt := parts[p]
			if bound := pt.Bound(); !made || t.Cap() < 2*bound {
				t, made = newTable(bound), true
			} else {
				t.Clear()
			}
			fold(t, pt)
			drain(p, t)
		}
	})
}

// EachPart is the loop over partitions: min(workers, n) goroutines (at
// least one, none for n = 0) each call start once and then the do it
// returned on the next index in [0, n) that no goroutine has taken yet,
// until none is left. It returns once every call has. Indices are taken
// in ascending order, so one worker visits them in order.
func EachPart(n, workers int, start func() (do func(p int))) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(max(workers, 1), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do := start()
			for p := int(next.Add(1)) - 1; p < n; p = int(next.Add(1)) - 1 {
				do(p)
			}
		}()
	}
	wg.Wait()
}

// drain finishes every group of t, in key order.
func drain[A, R any](t *hashagg.Table[A], finish func(key uint32, a *A) R) []R {
	run := make([]R, 0, t.Len())
	t.ForEachSorted(func(key uint32, a *A) { run = append(run, finish(key, a)) })
	return run
}

// PartitionAndAggregate is Aggregate with the groups copied out of
// their tables whole, payload and all, sorted by key.
func PartitionAndAggregate[V partition.Scalar, A any, PA interface {
	*A
	hashagg.Adder[V]
	hashagg.Merger[A]
}](keys []uint32, vals []V, newA func() A, opt Options) []Entry[A] {
	return Aggregate[V, A, PA](keys, vals, newA, opt, entryOf[A]())
}

// entryOf returns the finish that copies a group into an Entry. A
// buffered payload (one with a Flush method) is drained first: the copy
// shares the buffer slice, and the table recycles it for the next
// partition.
func entryOf[A any]() func(key uint32, a *A) Entry[A] {
	if _, buffered := any((*A)(nil)).(interface{ Flush() }); buffered {
		return func(key uint32, a *A) Entry[A] {
			any(a).(interface{ Flush() }).Flush()
			return Entry[A]{Key: key, Agg: *a}
		}
	}
	return func(key uint32, a *A) Entry[A] { return Entry[A]{Key: key, Agg: *a} }
}
