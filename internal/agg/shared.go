package agg

import (
	"sync"

	"repro/internal/hashagg"
	"repro/internal/partition"
)

// SHAREDAGGREGATION — the alternative strategy of Cieslewicz & Ross
// ("Adaptive Aggregation on Chip Multiprocessors"), discussed in the
// paper's related work (Section VII): all threads aggregate into one
// shared table. The paper notes it can beat private tables when the
// result is larger than a private cache but smaller than the shared
// cache, in the absence of skew. This implementation stripes the table
// by key ranges, each stripe guarded by its own mutex, which keeps
// contention low for uniform keys.
//
// Reproducibility still holds with reproducible payloads: each group's
// accumulator absorbs the same multiset of values no matter which
// thread folds them in, and lock acquisition order cannot change the
// bits (merging/adding is order-independent).
//
// SharedAggregate and AdaptiveAggregate (adaptive.go) are comparators,
// not shipped paths: PartitionAndAggregate beats both on every ledger
// workload. They stay because benchmark/probes.go times them
// (agg.shared_op_ms, agg.adaptive_op_ms) and benchmark/ is frozen
// outside benchmark-archetype PRs.

// sharedStripes is the number of lock stripes.
const sharedStripes = 64

// SharedAggregate aggregates into a single striped shared table using
// the given number of workers.
func SharedAggregate[V any, A any, PA interface {
	*A
	hashagg.Adder[V]
	hashagg.Merger[A]
}](keys []uint32, vals []V, newA func() A, opt Options) []Entry[A] {
	opt = opt.withDefaults(len(keys))
	type stripe struct {
		mu sync.Mutex
		t  *hashagg.Table[A]
	}
	stripes := make([]stripe, sharedStripes)
	hint := opt.GroupHint/sharedStripes + 8
	for i := range stripes {
		stripes[i].t = hashagg.New[A](hint, opt.Hash, newA)
	}

	partition.EachChunk(len(keys), opt.Workers, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			k := keys[j]
			s := &stripes[k%sharedStripes]
			s.mu.Lock()
			PA(s.t.Upsert(k)).Add(vals[j])
			s.mu.Unlock()
		}
	})

	var out []Entry[A]
	entry := entryOf[A]()
	for i := range stripes {
		out = append(out, drain(stripes[i].t, entry)...)
	}
	return out
}
