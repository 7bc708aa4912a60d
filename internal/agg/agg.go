package agg

import (
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
func Aggregate[V any, A any, PA interface {
	*A
	hashagg.Adder[V]
	hashagg.Merger[A]
}, R any](keys []uint32, vals []V, newA func() A, opt Options, finish func(key uint32, a *A) R) []R {
	if len(keys) != len(vals) {
		panic("agg: keys and values must have equal length")
	}
	opt = opt.withDefaults(len(keys))
	if opt.Depth == 0 {
		return drain(aggregateUnpartitioned[V, A, PA](keys, vals, newA, opt), finish)
	}

	parts := partition.Recursive(keys, [][]V{vals}, opt.Depth, DefaultFanout, opt.Workers)
	runs := make([][]R, len(parts))
	AggregateParts(parts, opt.Workers,
		func(bound int) *hashagg.Table[A] { return hashagg.New[A](bound, opt.Hash, newA) },
		func(t *hashagg.Table[A], keys []uint32, cols [][]V) { hashagg.Aggregate[V, A, PA](t, keys, cols[0]) },
		func(p int, t *hashagg.Table[A]) {
			runs[p] = drain(t, finish)
			parts[p] = partition.Part[V]{} // aggregated rows are garbage while the rest still run
		})
	return slices.Concat(runs...)
}

// AggregateParts is the partition loop of every GROUP BY: workers
// goroutines share parts — rows already partitioned into key ranges —
// and each folds a part's rows into its table with fold, then hands the
// table to drain with the part's index. A worker keeps one table for
// every part it aggregates: made by newTable for the part's Bound, so
// it cannot rehash mid-part however many groups the whole input has,
// remade only for a part that bound outgrows, and otherwise cleared, not
// reallocated — payloads implementing hashagg.Resettable, the buffered
// accumulators in particular, keep their buffers, as in the paper's
// implementation. drain may read and flush the payloads but must not
// keep the table. One worker — also what a count below one runs —
// visits the parts in order.
func AggregateParts[V any, T interface {
	Cap() int
	Clear()
}](parts []partition.Part[V], workers int, newTable func(bound int) T, fold func(t T, keys []uint32, cols [][]V), drain func(p int, t T)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(max(workers, 1), len(parts)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t T
			made := false
			for p := int(next.Add(1)) - 1; p < len(parts); p = int(next.Add(1)) - 1 {
				pt := parts[p]
				if bound := pt.Bound(); !made || t.Cap() < 2*bound {
					t, made = newTable(bound), true
				} else {
					t.Clear()
				}
				fold(t, pt.Keys, pt.Cols)
				drain(p, t)
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
func PartitionAndAggregate[V any, A any, PA interface {
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

// aggregateUnpartitioned implements the Depth = 0 case: workers
// aggregate chunks of the input into private tables, which are then
// merged into the first of them. The merge order is fixed (worker 0, 1,
// …), and with reproducible payloads the merged result does not depend
// on the chunking at all.
func aggregateUnpartitioned[V any, A any, PA interface {
	*A
	hashagg.Adder[V]
	hashagg.Merger[A]
}](keys []uint32, vals []V, newA func() A, opt Options) *hashagg.Table[A] {
	n, w := len(keys), opt.Workers
	if n < 2*w {
		w = 1
	}
	tables := make([]*hashagg.Table[A], w)
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := min(i*chunk, n), min((i+1)*chunk, n)
			tables[i] = hashagg.New[A](opt.GroupHint, opt.Hash, newA)
			hashagg.Aggregate[V, A, PA](tables[i], keys[lo:hi], vals[lo:hi])
		}()
	}
	wg.Wait()
	for _, t := range tables[1:] {
		hashagg.MergeTables[A, PA](tables[0], t)
	}
	return tables[0]
}
