package agg

import (
	"math/bits"
	"runtime"
	"sync"

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
	// GroupHint pre-sizes hash tables (total expected groups; divided
	// by the fan-out for per-partition tables).
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

// PartitionAndAggregate is Algorithm 4: the input is radix-partitioned
// on the (identity) hash of the key with fan-out Fanout^Depth, every
// partition is aggregated into a private hash table, and per-thread
// results are merged without synchronization (partitions are disjoint
// in key space).
//
// With reproducible payloads (core.Sum64, core.Buffered64, …) the
// result is bit-identical for every permutation of the input, every
// Depth, and every worker count. With float payloads it is not — that
// contrast is the paper's motivation.
func PartitionAndAggregate[V any, A any, PA interface {
	*A
	hashagg.Adder[V]
	hashagg.Merger[A]
}](keys []uint32, vals []V, newA func() A, opt Options) []Entry[A] {
	opt = opt.withDefaults(len(keys))
	if opt.Depth == 0 {
		return aggregateUnpartitioned[V, A, PA](keys, vals, newA, opt)
	}

	parts := partition.Recursive(keys, vals, opt.Depth, opt.Fanout, opt.Workers)
	np := parts.NumPartitions()
	perPartHint := opt.GroupHint / np
	if perPartHint < 8 {
		perPartHint = 8
	}

	// Each worker aggregates a contiguous range of partitions into a
	// private table per partition and emits that partition's entries.
	results := make([][]Entry[A], np)
	var wg sync.WaitGroup
	// Hand out contiguous ranges of partitions (not single partitions):
	// with 256^2 partitions, per-partition channel traffic would dominate.
	batch := np / (opt.Workers * 8)
	if batch < 1 {
		batch = 1
	}
	// The radix passes consumed the low Depth × log2(Fanout) key bits,
	// so partition-local tables index by the bits above them.
	lowBits := uint(opt.Depth * bits.TrailingZeros(uint(opt.Fanout)))
	next := make(chan [2]int, np/batch+1)
	for p := 0; p < np; p += batch {
		hi := p + batch
		if hi > np {
			hi = np
		}
		next <- [2]int{p, hi}
	}
	close(next)
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One table per worker, cleared (not reallocated) between
			// partitions: payloads implementing hashagg.Resettable — the
			// buffered reproducible accumulators in particular — keep
			// their buffers across partitions, as in the paper's
			// implementation.
			t := hashagg.NewPartitioned[A](perPartHint, opt.Hash, newA, lowBits)
			for r := range next {
				for p := r[0]; p < r[1]; p++ {
					pk, pv := parts.Partition(p)
					if len(pk) == 0 {
						continue
					}
					hashagg.Aggregate[V, A, PA](t, pk, pv)
					results[p] = collect(t)
					t.Clear()
				}
			}
		}()
	}
	wg.Wait()

	// Concatenate in partition order (deterministic layout).
	total := 0
	for _, r := range results {
		total += len(r)
	}
	out := make([]Entry[A], 0, total)
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// aggregateUnpartitioned implements the Depth = 0 case: workers
// aggregate chunks of the input into private tables, which are then
// merged into a single shared table. The merge order is fixed (worker
// 0, 1, …), and with reproducible payloads the merged result does not
// depend on the chunking at all.
func aggregateUnpartitioned[V any, A any, PA interface {
	*A
	hashagg.Adder[V]
	hashagg.Merger[A]
}](keys []uint32, vals []V, newA func() A, opt Options) []Entry[A] {
	n := len(keys)
	w := opt.Workers
	if w > 1 && n >= 2*w {
		tables := make([]*hashagg.Table[A], w)
		var wg sync.WaitGroup
		chunk := (n + w - 1) / w
		for i := 0; i < w; i++ {
			lo, hi := i*chunk, (i+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(i, lo, hi int) {
				defer wg.Done()
				t := hashagg.New[A](opt.GroupHint, opt.Hash, newA)
				hashagg.Aggregate[V, A, PA](t, keys[lo:hi], vals[lo:hi])
				tables[i] = t
			}(i, lo, hi)
		}
		wg.Wait()
		var dst *hashagg.Table[A]
		for _, t := range tables {
			if t == nil {
				continue
			}
			if dst == nil {
				dst = t
				continue
			}
			hashagg.MergeTables[A, PA](dst, t)
		}
		if dst == nil {
			return nil
		}
		return collect(dst)
	}
	t := hashagg.New[A](opt.GroupHint, opt.Hash, newA)
	hashagg.Aggregate[V, A, PA](t, keys, vals)
	return collect(t)
}

// flusher is implemented by buffered payloads that must drain their
// summation buffer before the payload value can be copied out of the
// table (the copy shares the buffer slice, and the table may recycle it
// for the next partition).
type flusher interface{ Flush() }

func collect[A any](t *hashagg.Table[A]) []Entry[A] {
	out := make([]Entry[A], 0, t.Len())
	_, needFlush := any((*A)(nil)).(flusher)
	t.ForEach(func(key uint32, a *A) {
		if needFlush {
			any(a).(flusher).Flush()
		}
		out = append(out, Entry[A]{Key: key, Agg: *a})
	})
	return out
}
