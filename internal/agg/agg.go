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
	// fan-out is Fanout^Depth. Depth 0 aggregates directly.
	Depth int
	// Fanout is the per-pass fan-out f (default 256; the paper's
	// "modern hardware runs partitioning efficiently only up to a
	// certain fan-out").
	Fanout int
	// Workers is the goroutine count (default GOMAXPROCS).
	Workers int
	// Hash selects the table hash function (default Identity).
	Hash hashagg.Hash
	// GroupHint pre-sizes the Depth 0 tables (total expected groups).
	// A partition's table is sized from the partition's own keys.
	GroupHint int
}

func (o Options) withDefaults(n int) Options {
	if o.Fanout == 0 {
		o.Fanout = DefaultFanout
	}
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
// keys differ, Fanout^Depth ways), every partition is aggregated into a
// private hash table, and per-thread results are put together without
// synchronization (partitions are disjoint in key space).
//
// A group leaves its table through finish and nowhere else: a worker
// drains each partition's table in key order into that partition's run
// of results, and the runs, concatenated in partition order, are the
// result — sorted by key at every Depth (0 drains the one merged table),
// without a payload having been copied or the groups sorted as a whole.
// finish may read and flush the payload but must not keep the pointer:
// the slot is recycled for the next partition.
//
// A worker's table is sized from its partition's KeyBound, never
// from GroupHint, so it cannot rehash mid-partition however wrong the
// hint, and is cleared, not reallocated, between partitions: payloads
// implementing hashagg.Resettable — the buffered reproducible
// accumulators in particular — keep their buffers, as in the paper's
// implementation.
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

	parts := partition.Recursive(keys, vals, opt.Depth, opt.Fanout, opt.Workers)
	runs := make([][]R, len(parts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(opt.Workers, len(parts)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t *hashagg.Table[A]
			for p := int(next.Add(1)) - 1; p < len(parts); p = int(next.Add(1)) - 1 {
				pt := parts[p]
				parts[p] = partition.Part[V]{} // aggregated rows are garbage while the rest still run
				if bound := partition.KeyBound(pt.Keys, 1); t == nil || t.Cap() < 2*bound {
					t = hashagg.New[A](bound, opt.Hash, newA)
				} else {
					t.Clear()
				}
				hashagg.Aggregate[V, A, PA](t, pt.Keys, pt.Vals)
				runs[p] = drain(t, finish)
			}
		}()
	}
	wg.Wait()
	return slices.Concat(runs...)
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
