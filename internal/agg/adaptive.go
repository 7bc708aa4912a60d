package agg

import (
	"repro/internal/hashagg"
)

// Adaptive aggregation — the mechanism of Section V-C (following Müller
// et al., "Cache-Efficient Aggregation: Hashing Is Sorting", which the
// paper cites as [26]): since the number of groups is generally unknown
// and hard to estimate, start aggregating into a bounded private hash
// table; if and when the observed group count crosses a threshold,
// switch to partitioning and recurse. The paper determines depths
// offline and calls the adaptive variant "only a matter of
// implementation time" — this is that implementation.
//
// Reproducibility is unaffected by adaptivity: with reproducible
// payloads, the switch point only changes *where* values are folded,
// never the final merged bits.

// AdaptiveOptions configures AdaptiveAggregate.
type AdaptiveOptions struct {
	// MaxTableGroups is the group-count threshold that triggers a
	// partitioning pass (default 1<<17; the planner's own crossovers
	// are the model-derived DepthThresholds in tuning.go).
	MaxTableGroups int
	// Fanout is the per-pass radix fan-out (default 256).
	Fanout int
	// Workers bounds goroutines (default GOMAXPROCS).
	Workers int
	// Hash selects the table hash function.
	Hash hashagg.Hash
	// MaxDepth bounds recursion (default 4 — a fan-out of 256^4 covers
	// the full uint32 key space).
	MaxDepth int
}

func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	if o.MaxTableGroups <= 0 {
		o.MaxTableGroups = 1 << 17
	}
	if o.Fanout == 0 {
		o.Fanout = 256
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 4
	}
	return o
}

// AdaptiveAggregate aggregates without knowing the group count in
// advance. It processes the input into a hash table until the table
// exceeds MaxTableGroups distinct keys; then it abandons the sampling
// run, partitions the remaining (and already seen) input by the next
// key byte, and recurses per partition. The already-built table is
// merged into the result, so no work is wasted.
func AdaptiveAggregate[V any, A any, PA interface {
	*A
	hashagg.Adder[V]
	hashagg.Merger[A]
}](keys []uint32, vals []V, newA func() A, opt AdaptiveOptions) []Entry[A] {
	opt = opt.withDefaults()
	return adaptiveLevel[V, A, PA](keys, vals, newA, opt, 0)
}

func adaptiveLevel[V any, A any, PA interface {
	*A
	hashagg.Adder[V]
	hashagg.Merger[A]
}](keys []uint32, vals []V, newA func() A, opt AdaptiveOptions, level int) []Entry[A] {
	if len(keys) == 0 {
		return nil
	}
	// Phase 1: optimistic hash aggregation with a group budget.
	t := hashagg.New[A](min(opt.MaxTableGroups, 1024), opt.Hash, newA)
	i := 0
	for ; i < len(keys); i++ {
		PA(t.Upsert(keys[i])).Add(vals[i])
		if t.Len() > opt.MaxTableGroups {
			i++
			break
		}
	}
	if i == len(keys) || level >= opt.MaxDepth {
		// Fit in the table (or out of radix bytes): done at this level.
		return drain(t, entryOf[A]())
	}

	// Phase 2: threshold crossed. Partition the remaining input by the
	// key byte of this level and recurse; the partial table becomes one
	// more "partition" merged at the end (its groups overlap all
	// partitions, so it is merged group-wise).
	radixBits := uint(0)
	for f := opt.Fanout; f > 1; f >>= 1 {
		radixBits++
	}
	shift := uint(level) * radixBits

	type part struct {
		keys []uint32
		vals []V
	}
	parts := make([]part, opt.Fanout)
	mask := uint32(opt.Fanout - 1)
	for j := i; j < len(keys); j++ {
		p := (keys[j] >> shift) & mask
		parts[p].keys = append(parts[p].keys, keys[j])
		parts[p].vals = append(parts[p].vals, vals[j])
	}

	var out []Entry[A]
	for p := range parts {
		out = append(out, adaptiveLevel[V, A, PA](parts[p].keys, parts[p].vals, newA, opt, level+1)...)
	}
	// Merge the sampled prefix group-wise into the partitioned result.
	prefix := drain(t, entryOf[A]())
	if len(prefix) > 0 {
		merged := hashagg.New[A](len(out)+len(prefix), opt.Hash, newA)
		for i := range out {
			PA(merged.Upsert(out[i].Key)).MergeFrom(&out[i].Agg)
		}
		for i := range prefix {
			PA(merged.Upsert(prefix[i].Key)).MergeFrom(&prefix[i].Agg)
		}
		return drain(merged, entryOf[A]())
	}
	return out
}
